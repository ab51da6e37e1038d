package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

// surfaceMetricNames is every metric name /metrics carries after the
// TestObservableSurface script, sorted. It pins names, not readers: dashboards,
// alerts and bench/serve.go key on these strings, so adding, renaming or
// dropping one is a deliberate edit here, never a side effect — but a name
// being listed here is no reason to emit it. Who reads each metric is
// docs/OBSERVABILITY.md's catalogue, held to the code by TestSignalCatalogue.
var surfaceMetricNames = []string{
	"ingest.bytes_in",
	"ingest.chunk_checksum_errors",
	"ingest.chunks_replayed",
	"ingest.sessions_expired",
	"ingest.sessions_failed",
	"ingest.sessions_open",
	"ingest.short_circuits",
	"ingest.store_entries",
	"ingest.store_evictions",
	"ingest.store_hits",
	"ingest.store_misses",
	"obs.otlp_dropped",
	"obs.otlp_exported",
	"service.cache_coalesced",
	"service.cache_hits",
	"service.cache_misses",
	"service.draining",
	"service.job_latency_ms",
	"service.jobs_completed",
	"service.jobs_failed",
	"service.jobs_rejected",
	"service.jobs_rejected_draining",
	"service.jobs_submitted",
	"service.jobs_timeout",
	"service.partition_cache_hits",
	"service.partition_cache_misses",
	"service.placement_builds",
	"service.placement_bytes",
	"service.pool_idle",
	"service.pool_worlds_created",
	"service.pool_worlds_discarded",
	"service.pool_worlds_reused",
	"service.queue_cap",
	"service.queue_depth",
	"service.queue_wait_ms",
	"service.run_ms",
	"service.tenant_overflow_folded",
	"service.tenants",
}

// tenantMetricSuffixes is the per-tenant family: every tenant the script
// touched carries exactly these under service.tenant.<id>.
var tenantMetricSuffixes = []string{
	"admitted", "completed", "latency_ms", "queue_depth", "queue_wait_ms", "rejected",
	"rejected_queue", "rejected_rate", "run_ms", "running", "submitted", "uploads_open", "uploads_rejected",
}

// resultLen marks a span whose n attribute is the length of the answer's
// result text, known only once the job ran; placementLen one whose n is the
// bytes of the one placement the script retains, read back from the
// service.placement_bytes gauge.
const (
	resultLen    = -1
	placementLen = -2
)

// TestObservableSurface pins what an operator or the benchmark can see of one
// request, outcome by outcome: the ordered serve.* spans under serve.job
// (sequence numbers, parent, n attribute), the exact counter and
// histogram-count deltas, and afterwards the full metric-name set. The reject
// paths' spans and counters are pinned nowhere else.
func TestObservableSurface(t *testing.T) {
	g, gtext := testGraph(t)
	vertices := int64(g.NumVertices())
	c := newCollector(0)
	defer c.srv.Close()
	var access syncBuffer
	srv, cl := startServer(t, service.Config{
		QueueLen: 8, Workers: 1,
		AccessLog:    &access,
		OTLPEndpoint: c.srv.URL,
		OTLPInterval: time.Hour, // spans stream per job; metrics are read from /metrics
		Policies: &service.TenantPolicies{Tenants: map[string]service.TenantPolicy{
			// One token refilled over ~17 minutes: the second request is over
			// the rate however slow the host.
			"slow": {RatePerSec: 0.001, Burst: 1},
			"q":    {MaxQueued: 1},
		}},
	}, false)

	job := service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2, Seed: 3}
	with := func(mutate func(r *service.Request)) *service.Request {
		r := job
		mutate(&r)
		return &r
	}
	tenantDelta := func(tenant string, global map[string]int64, perTenant ...string) map[string]int64 {
		for _, name := range perTenant {
			global["service.tenant."+tenant+"."+name] = 1
		}
		return global
	}
	ranSpans := func(partition ...string) []string {
		return append(append([]string{"serve.job", "serve.admit", "serve.resolve", "serve.queue_wait", "serve.pool_acquire"},
			partition...), "serve.run", "serve.cache_deposit", "serve.respond")
	}
	ranN := func(partition string) map[string]int64 {
		return map[string]int64{"serve.resolve": vertices, partition: 2, "serve.placement.build": placementLen,
			"serve.cache_deposit": resultLen, "serve.respond": resultLen}
	}
	// The first inline row parses the text (a store miss) and leaves the graph
	// in the store; every later row with the same text is a store hit, and so
	// is naming the graph by its fingerprint: the by-reference rows.
	byRef := func(r *service.Request) { r.Graph, r.GraphRef, r.NoCache = "", graph.Fingerprint(g), true }
	warmRun := func(extra ...string) map[string]int64 {
		d := tenantDelta("pin", map[string]int64{
			"service.jobs_submitted": 1, "service.cache_misses": 1, "service.partition_cache_hits": 1,
			"service.pool_worlds_reused": 1, "service.jobs_completed": 1,
			"service.queue_wait_ms": 1, "service.run_ms": 1, "service.job_latency_ms": 1,
		}, "submitted", "admitted", "completed", "queue_wait_ms", "run_ms", "latency_ms")
		for _, name := range extra {
			d[name] = 1
		}
		return d
	}

	rows := []struct {
		name   string
		tenant string
		req    *service.Request // nil sends raw instead
		raw    string
		// park submits before the workers start; the job resolves after the
		// next row that does not park, once the workers run. A parked row
		// that follows joins the flight of the parked row before it, which
		// asks for the same result.
		park    bool
		follows bool
		drain   bool // drain the server before submitting
		status  int
		spans   []string         // serve.* spans in sequence order
		n       map[string]int64 // non-zero n attributes, by span name
		delta   map[string]int64 // counters and histogram counts that moved
	}{
		// Its own seed: a request for job's result would lead the flight the
		// cache-miss row must lead.
		{name: "queued-timeout 504", tenant: "q", park: true, status: http.StatusGatewayTimeout,
			req:   with(func(r *service.Request) { r.TimeoutMillis, r.Seed = 30, 6 }),
			spans: []string{"serve.job", "serve.admit", "serve.resolve", "serve.queue_wait"},
			n:     map[string]int64{"serve.resolve": vertices},
			delta: tenantDelta("q", map[string]int64{
				"service.jobs_submitted": 1, "ingest.store_misses": 1, "service.cache_misses": 1, "service.jobs_timeout": 1,
				"service.queue_wait_ms": 1,
			}, "submitted", "admitted", "queue_wait_ms")},
		{name: "cache miss", tenant: "pin", park: true, status: http.StatusOK, req: &job,
			spans: ranSpans("serve.partition.compute"), n: ranN("serve.partition.compute"),
			delta: tenantDelta("pin", map[string]int64{
				"service.jobs_submitted": 1, "ingest.store_hits": 1, "service.cache_misses": 1, "service.partition_cache_misses": 1,
				"service.pool_worlds_created": 1, "service.jobs_completed": 1,
				"service.queue_wait_ms": 1, "service.run_ms": 1, "service.job_latency_ms": 1,
			}, "submitted", "admitted", "completed", "queue_wait_ms", "run_ms", "latency_ms")},
		// Asked while the cache miss is queued: it waits on that run, holds
		// no queue slot, and answers from it as a hit.
		{name: "coalesced", tenant: "pin", park: true, follows: true, status: http.StatusOK, req: &job,
			spans: []string{"serve.job", "serve.admit", "serve.resolve", "serve.cache.coalesced", "serve.respond"},
			n:     map[string]int64{"serve.resolve": vertices, "serve.respond": resultLen},
			delta: tenantDelta("pin", map[string]int64{
				"service.jobs_submitted": 1, "ingest.store_hits": 1, "service.cache_coalesced": 1, "service.cache_hits": 1,
			}, "submitted")},
		{name: "queue-full 429", tenant: "q", status: http.StatusTooManyRequests,
			req:   with(func(r *service.Request) { r.Seed = 4 }),
			spans: []string{"serve.job", "serve.admit", "serve.resolve"},
			n:     map[string]int64{"serve.resolve": vertices},
			delta: tenantDelta("q", map[string]int64{
				"service.jobs_submitted": 1, "ingest.store_hits": 1, "service.cache_misses": 1, "service.jobs_rejected": 1,
			}, "submitted", "rejected", "rejected_queue")},
		{name: "cache hit", tenant: "pin", status: http.StatusOK, req: &job,
			spans: []string{"serve.job", "serve.admit", "serve.resolve", "serve.cache.hit", "serve.respond"},
			n:     map[string]int64{"serve.resolve": vertices, "serve.respond": resultLen},
			delta: tenantDelta("pin", map[string]int64{"service.jobs_submitted": 1, "ingest.store_hits": 1, "service.cache_hits": 1}, "submitted")},
		{name: "no_cache", tenant: "pin", status: http.StatusOK,
			req:   with(func(r *service.Request) { r.NoCache = true }),
			spans: ranSpans("serve.partition.cached"), n: ranN("serve.partition.cached"),
			// A bypassed lookup still counts a miss: hits + misses = submitted
			// past admission, which bench/serve.go reconciles per window. The
			// inline job cut its own shares and retained none.
			delta: warmRun("ingest.store_hits")},
		{name: "by reference, first: builds the retained shares", tenant: "pin", status: http.StatusOK, req: with(byRef),
			spans: ranSpans("serve.partition.cached", "serve.placement.build"), n: ranN("serve.partition.cached"),
			delta: warmRun("ingest.store_hits", "service.placement_builds")},
		{name: "by reference, again: runs on them", tenant: "pin", status: http.StatusOK, req: with(byRef),
			spans: ranSpans("serve.partition.cached"), n: ranN("serve.partition.cached"),
			delta: warmRun("ingest.store_hits")},
		{name: "400 undecodable body", tenant: "pin", status: http.StatusBadRequest, raw: "{",
			spans: []string{"serve.job", "serve.admit"},
			delta: tenantDelta("pin", map[string]int64{"service.jobs_submitted": 1}, "submitted")},
		{name: "400 invalid request", tenant: "pin", status: http.StatusBadRequest,
			req:   with(func(r *service.Request) { r.Algorithm = "sort" }),
			spans: []string{"serve.job", "serve.admit"},
			delta: tenantDelta("pin", map[string]int64{"service.jobs_submitted": 1}, "submitted")},
		{name: "400 malformed graph", tenant: "pin", status: http.StatusBadRequest,
			req:   with(func(r *service.Request) { r.Graph = "not a graph\n" }),
			spans: []string{"serve.job", "serve.admit", "serve.resolve"},
			delta: tenantDelta("pin", map[string]int64{"service.jobs_submitted": 1, "ingest.store_misses": 1}, "submitted")},
		{name: "400 invalid tenant header", tenant: "no spaces allowed", status: http.StatusBadRequest, req: &job,
			spans: []string{"serve.job"}, delta: map[string]int64{}},
		{name: "cache hit spending the rate burst", tenant: "slow", status: http.StatusOK, req: &job,
			spans: []string{"serve.job", "serve.admit", "serve.resolve", "serve.cache.hit", "serve.respond"},
			n:     map[string]int64{"serve.resolve": vertices, "serve.respond": resultLen},
			delta: tenantDelta("slow", map[string]int64{"service.jobs_submitted": 1, "ingest.store_hits": 1, "service.cache_hits": 1}, "submitted")},
		{name: "rate 429", tenant: "slow", status: http.StatusTooManyRequests, req: &job,
			spans: []string{"serve.job", "serve.admit"},
			delta: tenantDelta("slow", map[string]int64{"service.jobs_submitted": 1, "service.jobs_rejected": 1},
				"submitted", "rejected", "rejected_rate")},
		{name: "draining 503", tenant: "pin", drain: true, status: http.StatusServiceUnavailable, req: &job,
			spans: []string{"serve.job"},
			delta: map[string]int64{"service.jobs_rejected_draining": 1}},
	}

	const callerSpan = "b7ad6b7169203331"
	traceID := func(row int) string { return fmt.Sprintf("%032x", row+1) }
	// submit sends one row's request under its tenant and trace id; it
	// returns the HTTP status and, for a 200, the result length.
	submit := func(row int) (int, int64) {
		r := rows[row]
		traceparent := obs.Traceparent(traceID(row), callerSpan)
		if r.req == nil {
			hr, err := http.NewRequest(http.MethodPost, cl.Base+"/v1/jobs", strings.NewReader(r.raw))
			if err != nil {
				t.Error(err)
				return 0, 0
			}
			hr.Header.Set(service.TenantHeader, r.tenant)
			hr.Header.Set(service.TraceparentHeader, traceparent)
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				t.Error(err)
				return 0, 0
			}
			resp.Body.Close()
			return resp.StatusCode, 0
		}
		c := asTenant(cl, r.tenant)
		c.Traceparent = traceparent
		req := *r.req
		resp, err := c.Submit(context.Background(), &req)
		var apiErr *client.APIError
		switch {
		case err == nil:
			return http.StatusOK, int64(len(resp.Result))
		case errors.As(err, &apiErr):
			return apiErr.Status, 0
		}
		t.Errorf("%s: %v", r.name, err)
		return 0, 0
	}
	// snap reads every service/ingest counter and histogram count.
	snap := func() map[string]int64 {
		m, err := cl.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int64{}
		for name, v := range m.Counters {
			if strings.HasPrefix(name, "service.") || strings.HasPrefix(name, "ingest.") {
				out[name] = v
			}
		}
		for name, h := range m.Histograms {
			out[name] = h.Count
		}
		return out
	}
	// moved adds after−before into acc, keeping only what changed.
	moved := func(acc, before, after map[string]int64) map[string]int64 {
		for name, v := range after {
			if d := v - before[name]; d != 0 {
				acc[name] += d
			}
		}
		return acc
	}
	resultLens := make([]int64, len(rows))
	check := func(row, status int, delta map[string]int64) {
		if status != rows[row].status {
			t.Errorf("%s: status %d, want %d", rows[row].name, status, rows[row].status)
		}
		if !reflect.DeepEqual(delta, rows[row].delta) {
			t.Errorf("%s: counters moved\n got  %v\n want %v", rows[row].name, delta, rows[row].delta)
		}
	}

	type parkedJob struct {
		row    int
		delta  map[string]int64
		status chan int
	}
	// Parked rows resolve together once the workers start, so what moved
	// after the start is checked against their sum.
	var parked []*parkedJob
	for i, row := range rows {
		if row.drain {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
		}
		before := snap()
		if row.park {
			p := &parkedJob{row: i, status: make(chan int, 1)}
			go func() { s, n := submit(p.row); resultLens[p.row] = n; p.status <- s }()
			// admitted is a queued job handler's last write before it blocks
			// on the job, the coalesced count a follower's before it blocks
			// on its leader.
			if row.follows {
				waitMetric(t, cl, "service.cache_coalesced", 1)
			} else {
				waitMetric(t, cl, "service.tenant."+row.tenant+".admitted", 1)
			}
			p.delta = moved(map[string]int64{}, before, snap())
			parked = append(parked, p)
			continue
		}
		status, n := submit(i)
		resultLens[i] = n
		check(i, status, moved(map[string]int64{}, before, snap()))
		if len(parked) > 0 {
			time.Sleep(60 * time.Millisecond) // the parked 504's 30 ms deadline fires while queued
			before := snap()
			srv.Start()
			got, want := map[string]int64{}, map[string]int64{}
			var names []string
			for _, p := range parked {
				if status := <-p.status; status != rows[p.row].status {
					t.Errorf("%s: status %d, want %d", rows[p.row].name, status, rows[p.row].status)
				}
				moved(got, map[string]int64{}, p.delta)
				moved(want, map[string]int64{}, rows[p.row].delta)
				names = append(names, rows[p.row].name)
			}
			if got = moved(got, before, snap()); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: counters moved\n got  %v\n want %v", strings.Join(names, " + "), got, want)
			}
			parked = nil
		}
	}

	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range m.Counters {
		names = append(names, name)
	}
	for name := range m.Gauges {
		names = append(names, name)
	}
	for name := range m.Histograms {
		names = append(names, name)
	}
	want := append([]string(nil), surfaceMetricNames...)
	for _, tenant := range []string{service.DefaultTenant, "pin", "q", "slow"} {
		for _, suffix := range tenantMetricSuffixes {
			want = append(want, "service.tenant."+tenant+"."+suffix)
		}
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("metric names after the script\n got  %q\n want %q", names, want)
	}

	// Stop drains the exporter: every request's spans are at the collector —
	// except those answered before Start created the exporter, which are
	// read from the retained-trace ring through the access log's job id.
	srv.Stop()
	attr := func(s obs.OTLPSpan, key string) int64 {
		for _, kv := range s.Attributes {
			if kv.Key == key && kv.Value.IntValue != nil {
				var v int64
				fmt.Sscan(*kv.Value.IntValue, &v) //nolint:errcheck // the exporter wrote it with FormatInt
				return v
			}
		}
		return 0
	}
	type span struct {
		name, id, parent string
		n, seq           int64 // seq 0 = not carried by the source
	}
	byTrace := map[string][]span{}
	for _, s := range c.spans(t) {
		if strings.HasPrefix(s.Name, "serve.") {
			byTrace[s.TraceID] = append(byTrace[s.TraceID],
				span{s.Name, s.SpanID, s.ParentSpanID, attr(s, "dmgm.n"), attr(s, "dmgm.seq")})
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(access.String()), "\n") {
		var e struct {
			TraceID string `json:"trace_id"`
			JobID   string `json:"job_id"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		if len(byTrace[e.TraceID]) > 0 || e.JobID == "" {
			continue
		}
		jt, err := cl.JobTrace(context.Background(), e.JobID)
		if err != nil {
			t.Fatalf("retained trace of %s: %v", e.JobID, err)
		}
		for _, s := range jt.Spans { // no run happened: service spans only
			byTrace[e.TraceID] = append(byTrace[e.TraceID], span{s.Name, s.SpanID, s.ParentSpanID, s.N, 0})
		}
	}
	for i, row := range rows {
		spans := byTrace[traceID(i)]
		var got []string
		for _, s := range spans {
			got = append(got, s.name)
		}
		if !reflect.DeepEqual(got, row.spans) {
			t.Errorf("%s: spans\n got  %v\n want %v", row.name, got, row.spans)
			continue
		}
		for k, s := range spans {
			if s.seq != 0 && s.seq != int64(k+1) {
				t.Errorf("%s: %s has sequence %d, want %d", row.name, s.name, s.seq, k+1)
			}
			wantParent, wantN := spans[0].id, row.n[s.name]
			if k == 0 {
				wantParent = callerSpan
			}
			switch wantN {
			case resultLen:
				wantN = resultLens[i]
			case placementLen:
				if wantN = m.Gauges["service.placement_bytes"]; wantN <= 0 {
					t.Errorf("service.placement_bytes = %d with one placement retained", wantN)
				}
			}
			if s.parent != wantParent {
				t.Errorf("%s: %s parent %q, want %q", row.name, s.name, s.parent, wantParent)
			}
			if s.n != wantN {
				t.Errorf("%s: %s n = %d, want %d", row.name, s.name, s.n, wantN)
			}
		}
	}
}
