package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// fakeClock returns a deterministic now() advancing 1ms per call.
func fakeClock() func() int64 {
	var t int64
	return func() int64 {
		t += 1_000_000
		return t
	}
}

func TestRingWraparound(t *testing.T) {
	tr := NewTracer(0, 4)
	tr.now = fakeClock()
	const total = 10
	for i := 0; i < total; i++ {
		tok := tr.Begin("phase")
		tr.EndN(tok, int64(i))
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want ring capacity 4", len(spans))
	}
	// Oldest-first, and only the newest survive the wrap.
	for i, s := range spans {
		wantN := int64(total - 4 + i)
		if s.N != wantN {
			t.Errorf("span %d: N=%d, want %d", i, s.N, wantN)
		}
		if i > 0 && spans[i-1].Seq >= s.Seq {
			t.Errorf("spans out of order: seq %d then %d", spans[i-1].Seq, s.Seq)
		}
	}
	if tr.Recorded() != total {
		t.Errorf("Recorded()=%d, want %d", tr.Recorded(), total)
	}
	if dropped := tr.Recorded() - uint64(len(spans)); dropped != total-4 {
		t.Errorf("dropped=%d, want %d", dropped, total-4)
	}
}

func TestWraparoundDropsOpenSpan(t *testing.T) {
	tr := NewTracer(0, 2)
	tr.now = fakeClock()
	stale := tr.Begin("outer")
	// Wrap the ring past the open slot.
	for i := 0; i < 3; i++ {
		tr.End(tr.Begin("inner"))
	}
	tr.End(stale) // must not corrupt whatever now occupies the slot
	for _, s := range tr.Spans() {
		if s.Name == "outer" {
			t.Fatalf("overwritten span resurfaced: %+v", s)
		}
		if s.Dur < 0 {
			t.Fatalf("open span leaked out of Spans(): %+v", s)
		}
	}
}

func TestSpanTrafficDeltas(t *testing.T) {
	tr := NewTracer(0, 8)
	tr.now = fakeClock()
	var msgs, bytes int64
	tr.SetStatsFunc(func() (int64, int64) { return msgs, bytes })
	tok := tr.Begin("send-phase")
	msgs, bytes = 7, 1000
	tr.End(tok)
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Msgs != 7 || spans[0].Bytes != 1000 {
		t.Fatalf("got %+v, want msgs=7 bytes=1000", spans)
	}
}

// TestDisabledZeroAlloc asserts the overhead contract: with observability off
// (nil instruments) the instrumented hot paths allocate nothing.
func TestDisabledZeroAlloc(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	var ctr *Counter
	var h *Histogram
	cases := map[string]func(){
		"tracer": func() {
			tok := tr.Begin("x")
			tr.BeginDetail("y")
			tr.EndN(tok, 1)
			tr.Observe("z", time.Time{}, 0)
		},
		"counter":   func() { ctr.Add(3); ctr.Inc(); _ = ctr.Load() },
		"histogram": func() { h.Observe(42) },
		"registry":  func() { reg.Counter("a").Add(1); reg.Vec("b", 4).At(0).Inc() },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the disabled path, want 0", name, allocs)
		}
	}
}

// TestEnabledSpanZeroAlloc: even enabled, spans write into the pre-allocated
// ring without allocating.
func TestEnabledSpanZeroAlloc(t *testing.T) {
	tr := NewTracer(0, 1024)
	if allocs := testing.AllocsPerRun(100, func() {
		tr.EndN(tr.Begin("phase"), 1)
	}); allocs != 0 {
		t.Errorf("enabled span: %v allocs/op, want 0", allocs)
	}
}

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Add(2)
	reg.Counter("c").Inc() // same instrument
	if got := c.Load(); got != 3 {
		t.Errorf("counter=%d, want 3", got)
	}
	reg.Gauge("g").Set(9)
	v := reg.Vec("v", 3)
	v.At(1).Add(5)
	if v.At(99) != nil || v.Len() != 3 {
		t.Errorf("vec bounds: At(99)=%v Len=%d", v.At(99), v.Len())
	}
	h := reg.Histogram("h", ExpBounds(2, 8)) // bounds 2,4,8
	for _, x := range []int64{1, 2, 3, 9} {
		h.Observe(x)
	}
	s := reg.Snapshot()
	if s.Counters["c"] != 3 || s.Gauges["g"] != 9 {
		t.Errorf("snapshot scalars: %+v", s)
	}
	if got := s.PerRank["v"]; len(got) != 3 || got[1] != 5 {
		t.Errorf("snapshot vec: %v", got)
	}
	hs := s.Histograms["h"]
	want := []int64{2, 1, 0, 1} // <=2:{1,2} <=4:{3} <=8:{} inf:{9}
	if hs.Count != 4 || hs.Sum != 15 {
		t.Errorf("hist count=%d sum=%d", hs.Count, hs.Sum)
	}
	for i, w := range want {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d: %d, want %d (all %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
}

// TestVecCellsOwnCacheLines pins the layout of a per-rank vector: every cell
// takes a whole 64-byte line, so two ranks' counters never share one, and
// At, Len and the snapshot read the cells as before.
func TestVecCellsOwnCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(paddedCounter{}); size != 64 {
		t.Fatalf("a Vec cell is %d bytes, want 64", size)
	}
	v := NewRegistry().Vec("v", 4)
	for i := 0; i+1 < v.Len(); i++ {
		if gap := uintptr(unsafe.Pointer(v.At(i+1))) - uintptr(unsafe.Pointer(v.At(i))); gap != 64 {
			t.Errorf("cells %d and %d are %d bytes apart, want 64", i, i+1, gap)
		}
		v.At(i).Add(int64(i + 1))
	}
	if v.Len() != 4 || v.At(4) != nil {
		t.Errorf("Len() = %d, At(4) = %v", v.Len(), v.At(4))
	}
	reg := NewRegistry()
	reg.Vec("v", 3).At(2).Add(7)
	if got := reg.Snapshot().PerRank["v"]; !reflect.DeepEqual(got, []int64{0, 0, 7}) {
		t.Errorf("snapshot of the vec = %v, want [0 0 7]", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(1)
	a.Gauge("g").Set(5)
	a.Vec("v", 2).At(0).Add(10)
	a.Histogram("h", []int64{10}).Observe(3)
	b := NewRegistry()
	b.Counter("c").Add(2)
	b.Gauge("g").Set(9)
	b.Vec("v", 4).At(3).Add(7)
	b.Histogram("h", []int64{10}).Observe(30)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["c"] != 3 {
		t.Errorf("merged counter=%d, want 3", s.Counters["c"])
	}
	if s.Gauges["g"] != 9 {
		t.Errorf("merged gauge=%d, want max 9", s.Gauges["g"])
	}
	if v := s.PerRank["v"]; len(v) != 4 || v[0] != 10 || v[3] != 7 {
		t.Errorf("merged vec=%v", v)
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.Sum != 33 || h.Counts[0] != 1 || h.Counts[1] != 1 {
		t.Errorf("merged hist=%+v", h)
	}
}

// buildGoldenObserver records a fixed span/metric population under a
// deterministic clock, for the export golden test.
func buildGoldenObserver() *Observer {
	o := NewObserver(2, 8)
	clock := fakeClock()
	for r := 0; r < 2; r++ {
		o.Tracer(r).now = clock
	}
	o.Driver().now = clock

	o.Driver().Observe("driver.partition", time.Unix(0, 0), 2)
	t0 := o.Tracer(0)
	t0.EndN(t0.Begin("match.init"), 100)
	tok := t0.BeginDetail("match.inner")
	t0.EndN(tok, 40)
	t1 := o.Tracer(1)
	t1.EndN(t1.Begin("match.init"), 90)
	t1.Begin("match.outer") // left open: must not export

	reg := o.Registry()
	reg.Counter("mpi.bundle_flushes").Add(12)
	reg.Gauge("mpi.world_size").Set(2)
	vec := reg.Vec("mpi.sent_msgs", 2)
	vec.At(0).Add(3)
	vec.At(1).Add(4)
	reg.Histogram("mpi.bundle_bytes", ExpBounds(64, 256)).Observe(100)
	return o
}

func TestChromeExportGolden(t *testing.T) {
	o := buildGoldenObserver()
	var buf bytes.Buffer
	if err := o.WriteChrome(&buf, []int{0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if os.Getenv("OBS_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with OBS_UPDATE_GOLDEN=1 go test ./internal/obs)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export drifted from golden file.\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	o := buildGoldenObserver()
	path := filepath.Join(t.TempDir(), "t.json")
	if err := o.WriteTraceFile(path, []int{0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	tf, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, e := range tf.Events {
		if e.Ph == "X" {
			complete++
		}
	}
	// 4 closed spans (match.outer stayed open; the driver span counts).
	if complete != 4 {
		t.Errorf("%d complete spans, want 4", complete)
	}
}

func TestShardMerge(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	// Two single-rank worker shards, as a -launch run writes them.
	for r := 0; r < 2; r++ {
		o := NewObserver(2, 8)
		o.Tracer(r).now = fakeClock()
		tr := o.Tracer(r)
		tr.EndN(tr.Begin("match.init"), int64(r))
		o.Registry().Vec("mpi.sent_msgs", 2).At(r).Add(int64(r + 1))
		o.Registry().Counter("mpi.bundle_flushes").Add(5)
		if err := o.WriteTraceFile(shardPath(path, r), []int{r}, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := mergeShards(path, 2); err != nil {
		t.Fatal(err)
	}
	tf, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans int
	for _, e := range tf.Events {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans != 2 {
		t.Errorf("merged %d spans, want 2", spans)
	}
	if got := tf.Metrics.Counters["mpi.bundle_flushes"]; got != 10 {
		t.Errorf("merged counter=%d, want 10", got)
	}
	if v := tf.Metrics.PerRank["mpi.sent_msgs"]; len(v) != 2 || v[0] != 1 || v[1] != 2 {
		t.Errorf("merged vec=%v", v)
	}
	// Shards are consumed by the merge.
	for r := 0; r < 2; r++ {
		if _, err := os.Stat(shardPath(path, r)); !os.IsNotExist(err) {
			t.Errorf("shard %d not removed after merge", r)
		}
	}
}

// TestShardMergeFailures: a merge never destroys what it could not merge. A
// merged file that cannot be created (a directory has its name) returns an
// error saying so and leaves every worker's trace shard on disk, byte for
// byte; a missing shard still yields a merged file from what exists, consumes
// the shards it read, and names the missing rank in the error.
func TestShardMergeFailures(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{Trace: filepath.Join(dir, "trace.json")}
	for r := 0; r < 2; r++ {
		if err := f.Write(buildSurfaceObserver(r), []int{r}, r, true); err != nil {
			t.Fatal(err)
		}
	}
	shards := func() map[string]string {
		out := map[string]string{}
		for r := 0; r < 2; r++ {
			if data, err := os.ReadFile(shardPath(f.Trace, r)); err == nil {
				out[shardPath(f.Trace, r)] = string(data)
			}
		}
		return out
	}
	before := shards()
	if len(before) != 2 {
		t.Fatalf("workers wrote %d shards, want 2", len(before))
	}
	if err := os.Mkdir(f.Trace, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.Merge(2); err == nil || !strings.Contains(err.Error(), "left in place") {
		t.Fatalf("merge into an uncreatable file: err = %v, want one saying the shards are left in place", err)
	}
	if after := shards(); !reflect.DeepEqual(after, before) {
		t.Fatalf("a failed merge changed the shards on disk: %d intact of %d", len(after), len(before))
	}

	// Rank 1 never wrote: the merge proceeds on rank 0's shard.
	if err := os.Remove(f.Trace); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(shardPath(f.Trace, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Merge(2); err == nil || !strings.Contains(err.Error(), "missing for ranks [1]") {
		t.Fatalf("merge with a missing shard: err = %v, want the missing rank named", err)
	}
	if tf, err := ReadTraceFile(f.Trace); err != nil || len(tf.Events) == 0 {
		t.Fatalf("merged file not written from the shard that exists: %v", err)
	}
	if _, err := os.Stat(shardPath(f.Trace, 0)); !os.IsNotExist(err) {
		t.Error("the shard that was merged is still on disk")
	}
}

func TestObserverMetricsOnly(t *testing.T) {
	o := NewObserver(4, -1)
	if o.Tracer(0) != nil || o.Driver() != nil {
		t.Error("metrics-only observer must have nil tracers")
	}
	if o.Registry() == nil {
		t.Error("metrics-only observer must still carry a registry")
	}
}

func TestFlagsObserver(t *testing.T) {
	f := &Flags{}
	if f.NewObserver(4) != nil {
		t.Error("no outputs requested: observer must be nil")
	}
	f = &Flags{HTTP: "127.0.0.1:0"}
	if o := f.NewObserver(4); o == nil || o.Tracer(0) != nil {
		t.Error("a live endpoint alone must produce a ringless observer")
	}
	f = &Flags{Trace: "t.json"}
	if o := f.NewObserver(4); o == nil || o.Tracer(0) == nil {
		t.Error("trace flags must produce tracers")
	}
}
