package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dmgm"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

// syncBuffer is a bytes.Buffer safe for the access logger's writes racing
// the test's reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestJobTracingEndToEnd is the tentpole acceptance check: a job submitted
// under a caller traceparent answers with that trace id, retains a span tree
// (TraceSlowMillis 0 = every job), and the tree links service spans and the
// distributed run's per-rank spans into one parent chain.
func TestJobTracingEndToEnd(t *testing.T) {
	_, gtext := testGraph(t)
	var access syncBuffer
	_, cl := startServer(t, service.Config{
		QueueLen: 8, Workers: 1,
		TraceSlowMillis: 0, // retain every finished job
		AccessLog:       &access,
	}, true)

	const traceID = "0af7651916cd43dd8448eb211c80319c"
	const parentSpan = "b7ad6b7169203331"
	cl.Traceparent = obs.Traceparent(traceID, parentSpan)

	resp, err := cl.Submit(context.Background(), &service.Request{
		Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != traceID {
		t.Fatalf("resp.TraceID = %q, want the caller's %q", resp.TraceID, traceID)
	}

	jt, err := cl.JobTrace(context.Background(), resp.JobID)
	if err != nil {
		t.Fatalf("trace endpoint: %v", err)
	}
	if jt.JobID != resp.JobID || jt.TraceID != traceID {
		t.Fatalf("trace identity = (%q, %q), want (%q, %q)", jt.JobID, jt.TraceID, resp.JobID, traceID)
	}
	if jt.Status != http.StatusOK {
		t.Fatalf("trace status = %d, want 200", jt.Status)
	}
	if jt.TotalMillis <= 0 || jt.RunMillis <= 0 {
		t.Fatalf("timings missing: total %.3fms run %.3fms", jt.TotalMillis, jt.RunMillis)
	}

	// The tree must hold the request-scoped service spans AND per-rank
	// runtime spans, every span well-formed, and every parent either the
	// inbound caller span or a span inside the tree.
	ids := map[string]service.TraceSpan{}
	names := map[string]bool{}
	runtimeSpans := 0
	for _, s := range jt.Spans {
		if len(s.SpanID) != obs.SpanIDLen {
			t.Fatalf("span %q has malformed id %q", s.Name, s.SpanID)
		}
		ids[s.SpanID] = s
		names[s.Name] = true
		if s.Rank >= 0 {
			runtimeSpans++
		}
	}
	for _, want := range []string{"serve.job", "serve.admit", "serve.queue_wait", "serve.pool_acquire", "serve.run", "serve.respond"} {
		if !names[want] {
			t.Fatalf("span %q missing from tree (have %v)", want, names)
		}
	}
	if runtimeSpans == 0 {
		t.Fatal("no runtime (rank >= 0) spans linked into the job trace")
	}
	var root *service.TraceSpan
	for _, s := range jt.Spans {
		switch {
		case s.Name == "serve.job":
			r := s
			root = &r
			if s.ParentSpanID != parentSpan {
				t.Fatalf("serve.job parent = %q, want the caller's span %q", s.ParentSpanID, parentSpan)
			}
		case s.ParentSpanID == "":
			t.Fatalf("span %q has no parent (only serve.job may be the root)", s.Name)
		default:
			if _, ok := ids[s.ParentSpanID]; !ok {
				t.Fatalf("span %q parent %q not in the tree", s.Name, s.ParentSpanID)
			}
		}
	}
	if root == nil {
		t.Fatal("no serve.job root span")
	}

	// The access log saw the job: one JSON line carrying the same identity.
	var entry struct {
		TraceID  string `json:"trace_id"`
		JobID    string `json:"job_id"`
		Status   int    `json:"status"`
		Retained bool   `json:"trace_retained"`
	}
	line := strings.TrimSpace(access.String())
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log line %q: %v", line, err)
	}
	if entry.TraceID != traceID || entry.JobID != resp.JobID || entry.Status != 200 || !entry.Retained {
		t.Fatalf("access entry = %+v, want trace %s job %s status 200 retained", entry, traceID, resp.JobID)
	}
}

// TestTraceHeaderEchoedOnEveryAnswer pins the X-DMGM-Trace contract: minted
// when the caller sends nothing, the caller's own id when valid, echoed on
// rejects too.
func TestTraceHeaderEchoedOnEveryAnswer(t *testing.T) {
	_, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{QueueLen: 8, Workers: 1}, true)

	post := func(traceparent string) *http.Response {
		t.Helper()
		body := `{"algorithm":"match","ranks":2,"graph":` + string(mustJSON(t, gtext)) + `}`
		req, err := http.NewRequest(http.MethodPost, cl.Base+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if traceparent != "" {
			req.Header.Set(service.TraceparentHeader, traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// No traceparent: a fresh id is minted.
	minted := post("").Header.Get(service.TraceHeader)
	if len(minted) != obs.TraceIDLen {
		t.Fatalf("minted trace id %q, want %d hex chars", minted, obs.TraceIDLen)
	}
	// Valid traceparent: the caller's id is honored.
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	if got := post(obs.Traceparent(tid, "00f067aa0ba902b7")).Header.Get(service.TraceHeader); got != tid {
		t.Fatalf("echoed trace id %q, want %q", got, tid)
	}
	// Malformed traceparent: minted, not echoed back broken.
	if got := post("garbage").Header.Get(service.TraceHeader); len(got) != obs.TraceIDLen || got == "garbage" {
		t.Fatalf("trace id for malformed traceparent = %q", got)
	}
	// A reject (unknown algorithm) still carries the header and surfaces it
	// through APIError.TraceID.
	_, err := cl.Submit(context.Background(), &service.Request{Algorithm: "bogus", Graph: gtext})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("bad submit: %v, want *client.APIError", err)
	}
	if len(apiErr.TraceID) != obs.TraceIDLen {
		t.Fatalf("APIError.TraceID = %q, want a trace id", apiErr.TraceID)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTraceRetentionPolicy: fast successes below the slow threshold are not
// retained; raising the bar to "never slow" plus a clean run means 404.
func TestTraceRetentionPolicy(t *testing.T) {
	_, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{
		QueueLen: 8, Workers: 1,
		TraceSlowMillis: 1 << 40, // nothing is that slow
	}, true)
	resp, err := cl.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.JobTrace(context.Background(), resp.JobID)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("fast job trace fetch: %v, want 404", err)
	}

	// Disabled retention (< 0) keeps nothing, not even every-job mode jobs.
	_, cl2 := startServer(t, service.Config{
		QueueLen: 8, Workers: 1,
		TraceSlowMillis: -1,
	}, true)
	resp2, err := cl2.Submit(context.Background(), &service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.JobTrace(context.Background(), resp2.JobID); err == nil {
		t.Fatal("trace retained with retention disabled")
	}
}

// TestTracingConformance: tracing is pure observation — the same job on a
// traced server and an untraced one (DisableTracing) must answer with
// byte-identical results, fingerprints, and quality numbers. Coloring uses
// superstep >= n so the answer is timing-independent (the same guard the
// -compare-inline check in dmgm-load uses).
func TestTracingConformance(t *testing.T) {
	g, gtext := testGraph(t)
	_, traced := startServer(t, service.Config{QueueLen: 8, Workers: 1, TraceSlowMillis: 0}, true)
	_, untraced := startServer(t, service.Config{QueueLen: 8, Workers: 1, DisableTracing: true}, true)

	for _, algo := range []string{service.AlgoMatch, service.AlgoColor} {
		req := service.Request{
			Algorithm: algo, Graph: gtext, Ranks: 3, Params: dmgm.Params{Seed: 9, Superstep: g.NumVertices()}, NoCache: true,
		}
		r1, r2 := req, req
		a, err := traced.Submit(context.Background(), &r1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := untraced.Submit(context.Background(), &r2)
		if err != nil {
			t.Fatal(err)
		}
		if a.Result != b.Result {
			t.Fatalf("%s: traced result differs from untraced", algo)
		}
		if a.Fingerprint != b.Fingerprint || a.Weight != b.Weight || a.Colors != b.Colors {
			t.Fatalf("%s: traced summary differs: %+v vs %+v", algo, a, b)
		}
		if a.TraceID == "" {
			t.Fatalf("%s: traced server answered without a trace id", algo)
		}
	}
}

// TestHealthzStructured pins the /healthz JSON shape added in PROTOCOL §6:
// state, queue depths, inflight, idle worlds — while keeping the 200/503
// status contract the balancers rely on.
func TestHealthzStructured(t *testing.T) {
	srv, cl := startServer(t, service.Config{QueueLen: 8, Workers: 2}, true)
	resp, err := http.Get(cl.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	var hb struct {
		Status         string         `json:"status"`
		Workers        int            `json:"workers"`
		Inflight       int64          `json:"inflight"`
		QueueDepth     int            `json:"queue_depth"`
		Queues         map[string]int `json:"queues"`
		IdleWorlds     int            `json:"idle_worlds"`
		TracesRetained int            `json:"traces_retained"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if hb.Status != "ok" || hb.Workers != 2 || hb.QueueDepth != 0 {
		t.Fatalf("healthz = %+v, want status ok, 2 workers, empty queue", hb)
	}

	// Draining flips status to 503 + "draining" but keeps the JSON shape.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(cl.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp2.StatusCode)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&hb); err != nil {
		t.Fatalf("draining healthz body: %v", err)
	}
	if hb.Status != "draining" {
		t.Fatalf("draining status = %q", hb.Status)
	}
}

// TestQueueWaitAndRunHistograms: the satellite metrics — global and
// per-tenant queue-wait/run-time histograms fill as jobs flow.
func TestQueueWaitAndRunHistograms(t *testing.T) {
	_, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{QueueLen: 8, Workers: 1}, true)
	cl.Tenant = "acme"
	for seed := uint64(1); seed <= 2; seed++ {
		if _, err := cl.Submit(context.Background(), &service.Request{
			Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2, Params: dmgm.Params{Seed: seed},
		}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"service.queue_wait_ms", "service.run_ms",
		"service.tenant.acme.queue_wait_ms", "service.tenant.acme.run_ms",
	} {
		h, ok := m.Histograms[name]
		if !ok {
			t.Fatalf("histogram %s missing", name)
		}
		if h.Count != 2 {
			t.Fatalf("%s count = %d, want 2", name, h.Count)
		}
	}
}
