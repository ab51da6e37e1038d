package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testIdentity pins the ids of every OTLP test so goldens are stable.
var testIdentity = OTLPIdentity{RunID: "test-run", WorldSize: 2}

// fakeCollector is an in-process OTLP/HTTP collector: it records every
// request body per path and answers with a scripted status sequence.
type fakeCollector struct {
	mu       sync.Mutex
	bodies   map[string][][]byte // path -> request bodies
	statuses []int               // consumed one per request; empty = 200
	headers  http.Header         // extra response headers (Retry-After)
	srv      *httptest.Server
}

func newFakeCollector() *fakeCollector {
	c := &fakeCollector{bodies: map[string][][]byte{}, headers: http.Header{}}
	c.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body) //nolint:errcheck
		c.mu.Lock()
		c.bodies[r.URL.Path] = append(c.bodies[r.URL.Path], buf.Bytes())
		status := http.StatusOK
		if len(c.statuses) > 0 {
			status, c.statuses = c.statuses[0], c.statuses[1:]
		}
		for k, vs := range c.headers {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		c.mu.Unlock()
		w.WriteHeader(status)
		w.Write([]byte("{}")) //nolint:errcheck
	}))
	return c
}

func (c *fakeCollector) requests(path string) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.bodies[path]...)
}

// decodeTraces folds every /v1/traces request the collector saw into one
// flat span list.
func (c *fakeCollector) decodeTraces(t *testing.T) []OTLPSpan {
	t.Helper()
	var out []OTLPSpan
	for _, body := range c.requests(otlpTracesPath) {
		var req OTLPTraceRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("collector got unparsable trace request: %v", err)
		}
		for _, rs := range req.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				out = append(out, ss.Spans...)
			}
		}
	}
	return out
}

// decodeMetrics folds every /v1/metrics request into one flat metric list.
func (c *fakeCollector) decodeMetrics(t *testing.T) []OTLPMetric {
	t.Helper()
	var out []OTLPMetric
	for _, body := range c.requests(otlpMetricsPath) {
		var req OTLPMetricsRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("collector got unparsable metrics request: %v", err)
		}
		for _, rm := range req.ResourceMetrics {
			for _, sm := range rm.ScopeMetrics {
				out = append(out, sm.Metrics...)
			}
		}
	}
	return out
}

// TestOTLPRoundTrip is the acceptance check: everything the collector
// receives reconciles exactly with Tracer.Spans() and Registry.Snapshot().
func TestOTLPRoundTrip(t *testing.T) {
	o := buildGoldenObserver()
	c := newFakeCollector()
	defer c.srv.Close()
	reg := NewRegistry()
	exp := NewOTLPExporter(c.srv.URL, OTLPOptions{Identity: testIdentity, Registry: reg})
	exp.ExportObserver(o, []int{0, 1})
	if err := exp.Close(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if exp.Dropped() != 0 {
		t.Fatalf("dropped %d items against a healthy collector", exp.Dropped())
	}

	// Spans: every closed span of ranks 0,1 + driver, none invented.
	var want []Span
	for _, r := range []int{0, 1} {
		want = append(want, o.Tracer(r).Spans()...)
	}
	want = append(want, o.Driver().Spans()...)
	got := c.decodeTraces(t)
	if len(got) != len(want) {
		t.Fatalf("collector saw %d spans, observer holds %d", len(got), len(want))
	}
	traceID := testIdentity.TraceID()
	bySpanID := map[string]OTLPSpan{}
	for _, s := range got {
		if s.TraceID != traceID {
			t.Errorf("span %s: traceId %s, want %s", s.Name, s.TraceID, traceID)
		}
		if s.Kind != otlpSpanKindInternal {
			t.Errorf("span %s: kind %d, want internal", s.Name, s.Kind)
		}
		bySpanID[s.SpanID] = s
	}
	for _, w := range want {
		s, ok := bySpanID[testIdentity.SpanID(w.Rank, w.Seq)]
		if !ok {
			t.Errorf("span rank=%d seq=%d name=%s missing from export", w.Rank, w.Seq, w.Name)
			continue
		}
		if s.Name != w.Name || s.StartTimeUnixNano != unano(w.Start) || s.EndTimeUnixNano != unano(w.Start+w.Dur) {
			t.Errorf("span mismatch: got %+v want %+v", s, w)
		}
	}

	// Metrics: every registry key arrives with the right shape and values.
	snap := o.Registry().Snapshot()
	metrics := c.decodeMetrics(t)
	byName := map[string]OTLPMetric{}
	for _, m := range metrics {
		byName[m.Name] = m
	}
	wantMetrics := len(snap.Counters) + len(snap.Gauges) + len(snap.PerRank) + len(snap.Histograms)
	if len(byName) != wantMetrics {
		t.Fatalf("collector saw %d metrics, registry holds %d", len(byName), wantMetrics)
	}
	for k, v := range snap.Counters {
		m := byName[k]
		if m.Sum == nil || len(m.Sum.DataPoints) != 1 || m.Sum.DataPoints[0].AsInt != unano(v) || !m.Sum.IsMonotonic {
			t.Errorf("counter %s: %+v, want monotonic sum %d", k, m, v)
		}
	}
	for k, v := range snap.Gauges {
		m := byName[k]
		if m.Gauge == nil || len(m.Gauge.DataPoints) != 1 || m.Gauge.DataPoints[0].AsInt != unano(v) {
			t.Errorf("gauge %s: %+v, want %d", k, m, v)
		}
	}
	for k, vals := range snap.PerRank {
		m := byName[k]
		if m.Sum == nil || len(m.Sum.DataPoints) != len(vals) {
			t.Errorf("vec %s: %+v, want %d points", k, m, len(vals))
			continue
		}
		for i, v := range vals {
			if m.Sum.DataPoints[i].AsInt != unano(v) {
				t.Errorf("vec %s[%d]: %s, want %d", k, i, m.Sum.DataPoints[i].AsInt, v)
			}
		}
	}
	for k, h := range snap.Histograms {
		m := byName[k]
		if m.Histogram == nil || len(m.Histogram.DataPoints) != 1 {
			t.Errorf("histogram %s: %+v", k, m)
			continue
		}
		p := m.Histogram.DataPoints[0]
		if p.Count != unano(h.Count) || p.Sum != float64(h.Sum) ||
			len(p.BucketCounts) != len(h.Counts) || len(p.ExplicitBounds) != len(h.Bounds) {
			t.Errorf("histogram %s: %+v, want %+v", k, p, h)
		}
	}
	// Item accounting matches what went over the wire.
	var points int64
	for _, m := range metrics {
		switch {
		case m.Sum != nil:
			points += int64(len(m.Sum.DataPoints))
		case m.Gauge != nil:
			points += int64(len(m.Gauge.DataPoints))
		case m.Histogram != nil:
			points += int64(len(m.Histogram.DataPoints))
		}
	}
	if want, exported := int64(len(got))+points, reg.Counter("obs.otlp_exported").Load(); exported != want {
		t.Errorf("obs.otlp_exported=%d, want %d", exported, want)
	}
}

// goldenCheck compares got against testdata/<name>, regenerating under
// OBS_UPDATE_GOLDEN=1 like the Chrome export golden.
func goldenCheck(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("OBS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with OBS_UPDATE_GOLDEN=1 go test ./internal/obs)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\ngot:  %s\nwant: %s", name, got, want)
	}
}

func TestOTLPEncodingGolden(t *testing.T) {
	o := buildGoldenObserver()
	var spans []Span
	for _, r := range []int{0, 1} {
		spans = append(spans, o.Tracer(r).Spans()...)
	}
	spans = append(spans, o.Driver().Spans()...)
	traceBody, err := json.Marshal(EncodeOTLPSpans(spans, testIdentity))
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "otlp_traces_golden.json", traceBody)

	metricBody, err := json.Marshal(EncodeOTLPMetrics(o.Registry().Snapshot(), testIdentity, 1_000_000, 9_000_000))
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "otlp_metrics_golden.json", metricBody)
}

// TestOTLPRetryBackoff: a 503 burst with Retry-After is retried (honoring the
// header) and delivered once the collector recovers; nothing is dropped.
func TestOTLPRetryBackoff(t *testing.T) {
	c := newFakeCollector()
	defer c.srv.Close()
	c.mu.Lock()
	c.statuses = []int{http.StatusServiceUnavailable, http.StatusTooManyRequests}
	c.headers.Set("Retry-After", "7")
	c.mu.Unlock()

	var slept []time.Duration
	var sleptMu sync.Mutex
	reg := NewRegistry()
	exp := NewOTLPExporter(c.srv.URL, OTLPOptions{Identity: testIdentity, MaxRetries: 5, Registry: reg})
	exp.sleep = func(d time.Duration) {
		sleptMu.Lock()
		slept = append(slept, d)
		sleptMu.Unlock()
	}
	exp.ExportSpans([]Span{{Seq: 1, Rank: 0, Name: "phase", Start: 1, Dur: 2}})
	if err := exp.Close(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if exported := reg.Counter("obs.otlp_exported").Load(); exported != 1 || exp.Dropped() != 0 {
		t.Fatalf("exported=%d dropped=%d, want 1/0", exported, exp.Dropped())
	}
	if exp.Retries() != 2 {
		t.Errorf("retries=%d, want 2", exp.Retries())
	}
	sleptMu.Lock()
	defer sleptMu.Unlock()
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (%v)", len(slept), slept)
	}
	for i, d := range slept {
		if d != 7*time.Second { // Retry-After overrides computed backoff
			t.Errorf("sleep %d = %v, want 7s from Retry-After", i, d)
		}
	}
}

// TestOTLPExhaustedRetriesDrop: a collector that only ever answers 500 costs
// maxRetries+1 attempts and then a counted drop, mirrored into the registry.
func TestOTLPExhaustedRetriesDrop(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	reg := NewRegistry()
	exp := NewOTLPExporter(srv.URL, OTLPOptions{Identity: testIdentity, MaxRetries: 2, Registry: reg})
	exp.sleep = func(time.Duration) {}
	exp.ExportSpans([]Span{{Seq: 1, Rank: 0, Name: "phase", Start: 1, Dur: 2}})
	if err := exp.Close(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts=%d, want 3 (1 + 2 retries)", got)
	}
	if exported := reg.Counter("obs.otlp_exported").Load(); exp.Dropped() != 1 || exported != 0 {
		t.Errorf("dropped=%d exported=%d, want 1/0", exp.Dropped(), exported)
	}
	if got := reg.Counter("obs.otlp_dropped").Load(); got != 1 {
		t.Errorf("obs.otlp_dropped=%d, want 1", got)
	}
}

// TestOTLPPermanent4xxDrops: a permanent client error drops immediately, no
// retries.
func TestOTLPPermanent4xxDrops(t *testing.T) {
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer srv.Close()
	exp := NewOTLPExporter(srv.URL, OTLPOptions{Identity: testIdentity})
	exp.sleep = func(time.Duration) {}
	exp.ExportSpans([]Span{{Seq: 1, Rank: 0, Name: "phase", Start: 1, Dur: 2}})
	if err := exp.Close(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 1 {
		t.Errorf("attempts=%d, want 1 (400 is permanent)", attempts.Load())
	}
	if exp.Dropped() != 1 {
		t.Errorf("dropped=%d, want 1", exp.Dropped())
	}
}

// TestOTLPRefusedConnection: an unreachable collector never blocks export or
// Close; everything is retried then counted as dropped.
func TestOTLPRefusedConnection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close() // the port now refuses connections
	reg := NewRegistry()
	exp := NewOTLPExporter(url, OTLPOptions{Identity: testIdentity, MaxRetries: 1, Registry: reg})
	exp.sleep = func(time.Duration) {}
	exp.ExportSpans([]Span{{Seq: 1, Rank: 0, Name: "phase", Start: 1, Dur: 2}})
	if err := exp.Close(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if exported := reg.Counter("obs.otlp_exported").Load(); exp.Dropped() != 1 || exported != 0 {
		t.Errorf("dropped=%d exported=%d, want 1/0", exp.Dropped(), exported)
	}
}

// TestOTLPSlowCollectorBoundedQueue: with the delivery goroutine wedged on a
// slow collector, enqueueing more batches than the queue holds drops the
// excess immediately instead of blocking or growing memory.
func TestOTLPSlowCollectorBoundedQueue(t *testing.T) {
	release := make(chan struct{})
	var wedged sync.WaitGroup
	wedged.Add(1)
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(wedged.Done)
		<-release // wedge every request until the test lets go
	}))
	defer srv.Close()
	defer close(release)

	const queueCap = 2
	exp := NewOTLPExporter(srv.URL, OTLPOptions{Identity: testIdentity, QueueCap: queueCap, MaxRetries: 1})
	span := func(seq uint64) []Span { return []Span{{Seq: seq, Rank: 0, Name: "phase", Start: 1, Dur: 2}} }
	exp.ExportSpans(span(1)) // picked up by the delivery goroutine, wedges
	wedged.Wait()
	// Fill the queue, then overflow it: every batch past queueCap must drop.
	const extra = 5
	for i := 0; i < queueCap+extra; i++ {
		exp.ExportSpans(span(uint64(i + 2)))
	}
	if got := exp.Dropped(); got != extra {
		t.Errorf("dropped=%d, want %d (queue holds %d)", got, extra, queueCap)
	}
	// Close with the collector still wedged: bounded by the timeout, and the
	// pending batches are accounted, not silently lost.
	if err := exp.Close(50 * time.Millisecond); err == nil {
		t.Error("Close returned nil with a wedged collector, want drain-timeout error")
	}
}

// TestOTLPNilExporter: the disabled exporter accepts every call and reports
// zeros — the nil no-op contract extended to the export pipeline.
func TestOTLPNilExporter(t *testing.T) {
	var exp *OTLPExporter
	if exp2 := NewOTLPExporter("", OTLPOptions{}); exp2 != nil {
		t.Fatal("empty endpoint must yield the nil exporter")
	}
	exp.ExportSpans([]Span{{Seq: 1}})
	exp.ExportMetrics(NewRegistry().Snapshot(), 0)
	exp.ExportObserver(buildGoldenObserver(), []int{0, 1})
	if err := exp.Close(time.Second); err != nil {
		t.Fatal(err)
	}
	if exp.Dropped() != 0 || exp.Retries() != 0 {
		t.Error("nil exporter must report zeros")
	}
}

// TestOTLPDisabledZeroAlloc extends the zero-alloc contract to the exporter.
func TestOTLPDisabledZeroAlloc(t *testing.T) {
	var exp *OTLPExporter
	spans := []Span{{Seq: 1, Rank: 0, Name: "x", Start: 1, Dur: 2}}
	if allocs := testing.AllocsPerRun(100, func() {
		exp.ExportSpans(spans)
		_ = exp.Dropped()
	}); allocs != 0 {
		t.Errorf("nil exporter: %v allocs/op, want 0", allocs)
	}
}

// TestOTLPLaunchWorkerIdentities: the workers of one -launch job share a run
// id, so their exports land in one trace — and each worker's driver spans and
// registry points must still be told apart from its peers'.
// Two one-rank shards of a two-rank run go through Flags.ExportOTLP into one
// collector, which must see no span id twice and no (resource, metric, point
// attributes) twice: a backend keeps only the last of a repeated point.
func TestOTLPLaunchWorkerIdentities(t *testing.T) {
	t.Setenv(otlpRunEnv, "") // RunID exports the id it resolves; keep it to this test
	c := newFakeCollector()
	defer c.srv.Close()
	for r := 0; r < 2; r++ {
		f := &Flags{OTLP: c.srv.URL, OTLPRun: "launch-run"}
		if err := f.ExportOTLP(buildSurfaceObserver(r), []int{r}, 2); err != nil {
			t.Fatal(err)
		}
	}
	attrKey := func(kvs []OTLPKeyValue) string {
		b, _ := json.Marshal(kvs)
		return string(b)
	}
	instances := map[string]bool{}
	noteInstance := func(res OTLPResource) {
		for _, kv := range res.Attributes {
			if kv.Key == "service.instance.id" {
				instances[*kv.Value.StringValue] = true
			}
		}
	}
	spanIDs := map[string]string{}
	for _, body := range c.requests(otlpTracesPath) {
		var req OTLPTraceRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		for _, rs := range req.ResourceSpans {
			noteInstance(rs.Resource)
			for _, s := range rs.ScopeSpans[0].Spans {
				if prev, dup := spanIDs[s.SpanID]; dup {
					t.Errorf("span id %s sent for %s and again for %s", s.SpanID, prev, s.Name)
				}
				spanIDs[s.SpanID] = s.Name
			}
		}
	}
	points := map[string]bool{}
	for _, body := range c.requests(otlpMetricsPath) {
		var req OTLPMetricsRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		for _, rm := range req.ResourceMetrics {
			noteInstance(rm.Resource)
			for _, m := range rm.ScopeMetrics[0].Metrics {
				var attrs []string
				switch {
				case m.Sum != nil:
					for _, p := range m.Sum.DataPoints {
						attrs = append(attrs, attrKey(p.Attributes))
					}
				case m.Gauge != nil:
					for _, p := range m.Gauge.DataPoints {
						attrs = append(attrs, attrKey(p.Attributes))
					}
				case m.Histogram != nil:
					for _, p := range m.Histogram.DataPoints {
						attrs = append(attrs, attrKey(p.Attributes))
					}
				}
				for _, a := range attrs {
					k := attrKey(rm.Resource.Attributes) + " " + m.Name + " " + a
					if points[k] {
						t.Errorf("point sent twice: %s", k)
					}
					points[k] = true
				}
			}
		}
	}
	if len(spanIDs) == 0 || len(points) == 0 {
		t.Fatalf("collector saw %d spans and %d points", len(spanIDs), len(points))
	}
	want := map[string]bool{"rank-0": true, "rank-1": true, "driver-0": true, "driver-1": true, "registry-0": true, "registry-1": true}
	if !reflect.DeepEqual(instances, want) {
		t.Errorf("service.instance.id values %v, want %v", SortedKeys(instances), SortedKeys(want))
	}
}
