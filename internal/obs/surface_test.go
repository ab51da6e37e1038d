package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// surfaceFamilies are the tag families the surface observer carries traffic
// for, with each one's base message count. bmatch.propose is a synthetic
// family name with a dot of its own, which any split of "<base>.<family>"
// must survive (obs never resolves a name against internal/mpi); runtime is
// there because the aggregates exclude it.
var surfaceFamilies = []struct {
	name string
	msgs int64
}{{"match", 6}, {"bmatch.propose", 1}, {"color", 3}, {"runtime", 5}}

// buildSurfaceObserver records, under a fake clock, the population every
// rendered surface is pinned on: two ranks and the driver, coarse spans with
// traffic deltas, a detail span, a ring overflow on rank 1 (so the export
// carries a dropped-span counter), and the registry of a real run — the
// aggregate traffic vecs and their per-family splits, the bundler counters
// and their splits, the compute vecs -replay reads, a gauge and a histogram.
// local names the ranks this process hosts: both for an in-process run, one
// for a -launch worker, whose shard holds only its own rank's cells.
func buildSurfaceObserver(local ...int) *Observer {
	o := NewObserver(2, 8)
	clock := fakeClock()
	for r := 0; r < 2; r++ {
		o.Tracer(r).now = clock
	}
	o.Driver().now = clock
	o.Driver().Observe("driver.read", time.Unix(0, 0), 12)
	o.Driver().Observe("driver.partition", time.Unix(0, 1_000_000), 2)

	reg := o.Registry()
	reg.Gauge("mpi.world_size").Set(2)
	reg.Counter("service.tenant.acme.submitted").Add(1) // dotted, but no family
	for _, r := range local {
		tr := o.Tracer(r)
		var msgs, bytes int64
		tr.SetStatsFunc(func() (int64, int64) { return msgs, bytes })
		phase := func(name string, sent, n int64) {
			tok := tr.Begin(name)
			msgs, bytes = msgs+sent, bytes+170*sent
			tr.EndN(tok, n)
		}
		phase("match.init", 0, 100)
		inner := tr.BeginDetail("match.inner")
		tr.EndN(inner, 40)
		phase("match.rounds", 7+int64(r), 3)
		for step := 0; step < 1+4*r; step++ {
			phase("color.superstep", 3, int64(step))
		}
		tr.Begin("color.gather") // left open: never exported

		var sent, recv int64
		for _, f := range surfaceFamilies {
			s, v := f.msgs+int64(r), f.msgs+int64(1-r)
			for base, val := range map[string]int64{
				"mpi.sent_msgs": s, "mpi.sent_bytes": 170 * s, "mpi.recv_msgs": v, "mpi.recv_bytes": 170 * v,
			} {
				reg.Vec(base+"."+f.name, 2).At(r).Add(val)
			}
			if f.name != "runtime" {
				sent, recv = sent+s, recv+v
				reg.Counter("mpi.bundle_flushes." + f.name).Add(s)
				reg.Counter("mpi.bundle_records." + f.name).Add(9 * s)
			}
		}
		reg.Vec("mpi.sent_msgs", 2).At(r).Add(sent)
		reg.Vec("mpi.sent_bytes", 2).At(r).Add(170 * sent)
		reg.Vec("mpi.recv_msgs", 2).At(r).Add(recv)
		reg.Vec("mpi.recv_bytes", 2).At(r).Add(170 * recv)
		reg.Counter("mpi.bundle_flushes").Add(sent)
		reg.Counter("mpi.bundle_records").Add(9 * sent)
		reg.Vec("mpi.vertex_ops", 2).At(r).Add(100 - 10*int64(r))
		reg.Vec("mpi.edge_ops", 2).At(r).Add(400 - 20*int64(r))
		reg.Vec("mpi.barrier_epochs", 2).At(r).Add(3)
		h := reg.Histogram("mpi.bundle_bytes", ExpBounds(64, 1024))
		h.Observe(170)
		h.Observe(int64(1530 * (r + 1)))
	}
	return o
}

func httpBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
	}
	return body
}

// TestSurfaceGolden pins the bytes of every rendering of one observer: the
// trace file (also the input of cmd/dmgm-trace's view goldens), the /metrics
// and /snapshot bodies, and the OTLP metrics request with its family
// attributes. Recorded before the encoders, the live routes and
// the family-key parse were each reduced to one copy; a diff here is a
// change to what operators and tools read, never noise.
func TestSurfaceGolden(t *testing.T) {
	o := buildSurfaceObserver(0, 1)
	var trace bytes.Buffer
	if err := o.WriteChrome(&trace, []int{0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "surface_trace.json", trace.Bytes())

	live := &LiveSnapshot{
		CapturedUnixNanos: 12345, WorldSize: 2, LocalRanks: []int{0, 1},
		Ranks:   []RankTraffic{{Rank: 0, SentMsgs: 10}, {Rank: 1, SentMsgs: 13}},
		Metrics: o.Registry().Snapshot(),
	}
	addr, err := ServeLive("127.0.0.1:0", func() *LiveSnapshot { return live })
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "surface_metrics.json", httpBody(t, "http://"+addr+"/metrics"))
	goldenCheck(t, "surface_snapshot.json", httpBody(t, "http://"+addr+"/snapshot"))

	otlp, err := json.Marshal(EncodeOTLPMetrics(o.Registry().Snapshot(), testIdentity, 1_000_000, 9_000_000))
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "surface_otlp_metrics.json", otlp)
}

// TestSurfaceLaunchGolden pins a merged two-worker launch: each worker writes
// its -trace shard the way Flags.Write does in remote mode, the supervisor's
// Flags.Merge folds them, and the merged file is compared byte for byte.
func TestSurfaceLaunchGolden(t *testing.T) {
	f := &Flags{Trace: filepath.Join(t.TempDir(), "trace.json")}
	for r := 0; r < 2; r++ {
		if err := f.Write(buildSurfaceObserver(r), []int{r}, r, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Merge(2); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "surface_launch_trace.json", got)
}
