// Package conformance cross-checks the two transport backends: the same
// algorithm on the same instance must produce the same answer whether the
// ranks are goroutines sharing memory (inproc) or endpoints exchanging frames
// over real localhost sockets (tcp). Where the algorithm is deterministic,
// message counts must agree too — the negative-tag convention keeps the
// runtime's own over-the-wire collective traffic out of the counters on both
// backends.
package conformance

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/dmgm"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
	"repro/internal/partition"
)

const nRanks = 4

// overTCP runs fn once per rank, each rank owning its own World over a
// localhost TCP mesh — one test-binary stand-in for P processes. fn returns
// the global result on rank 0's world and nil elsewhere (the contract of the
// dmgm *World entry points); overTCP returns rank 0's value.
func overTCP[T any](t *testing.T, p int, fn func(w *mpi.World) (*T, error)) *T {
	t.Helper()
	eps, err := transport.NewLocalTCPCluster(p)
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*mpi.World, p)
	for i, ep := range eps {
		w, err := mpi.NewWorld(p, mpi.WithTransport(ep), mpi.WithDeadline(60*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}
	results := make([]*T, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := range worlds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = fn(worlds[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", i, err)
		}
	}
	for i, r := range results {
		if (r != nil) != (i == 0) {
			t.Fatalf("result returned on world %d; want rank 0 only", i)
		}
	}
	// Per-tag-family accounting must reconcile on every world, and the
	// runtime's reserved-tag collectives really crossed the wire here.
	var runtime mpi.FamilyStats
	for i, w := range worlds {
		assertFamiliesReconcile(t, w, fmt.Sprintf("tcp world %d", i))
		for _, r := range w.LocalRanks() {
			runtime.Add(w.RankStats(r).ByFamily[mpi.FamilyRuntime])
		}
	}
	if runtime.SentMsgs == 0 || runtime.RecvMsgs == 0 {
		t.Errorf("tcp runtime family saw no collective traffic: %+v", runtime)
	}
	return results[0]
}

// assertFamiliesReconcile checks the tag-family invariant on w's local ranks:
// the non-runtime families must sum exactly to the aggregate counters — every
// user byte attributed to a protocol phase, no byte counted twice.
func assertFamiliesReconcile(t *testing.T, w *mpi.World, label string) {
	t.Helper()
	for _, r := range w.LocalRanks() {
		s := w.RankStats(r)
		got := s.UserFamilyTotals()
		want := mpi.FamilyStats{SentMsgs: s.SentMsgs, SentBytes: s.SentBytes, RecvMsgs: s.RecvMsgs, RecvBytes: s.RecvBytes}
		if got != want {
			t.Errorf("%s rank %d: family totals %+v != aggregates %+v", label, r, got, want)
		}
	}
}

// instances the harness runs; the path graph's strictly increasing weights
// make the matching cascade sequentially, so even its message counts are
// schedule-independent.
type instance struct {
	name          string
	g             *dmgm.Graph
	part          *dmgm.Partition
	deterministic bool // message counts are schedule-independent
}

func buildInstances(t *testing.T) []instance {
	t.Helper()
	grid, err := gen.Grid2D(8, 8, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	gridPart, err := partition.Block1D(grid, nRanks)
	if err != nil {
		t.Fatal(err)
	}
	const pathN = 40
	edges := make([]dmgm.Edge, pathN-1)
	for i := range edges {
		edges[i] = dmgm.Edge{U: dmgm.Vertex(i), V: dmgm.Vertex(i + 1), W: float64(i + 1)}
	}
	path, err := dmgm.NewGraph(pathN, edges)
	if err != nil {
		t.Fatal(err)
	}
	pathPart, err := partition.Block1D(path, nRanks)
	if err != nil {
		t.Fatal(err)
	}
	bfsPart, err := partition.BFS(grid, nRanks, 11)
	if err != nil {
		t.Fatal(err)
	}
	return []instance{
		{"grid-block1d", grid, gridPart, false},
		{"grid-bfs", grid, bfsPart, false},
		{"path-monotone", path, pathPart, true},
	}
}

// jobKinds is every distributed job kind the CLIs and the daemon run, as the
// conformance tests name them. The colorings run one superstep per round
// (superstep = n), which makes them fully deterministic — colors, rounds and
// message counts — because ghost colors only change in the post-barrier
// drain; Jones–Plassmann is deterministic at any superstep.
var jobKinds = []struct {
	name string
	job  func(n int) dmgm.Job
}{
	{"match", func(int) dmgm.Job { return dmgm.Job{Algorithm: dmgm.AlgoMatch} }},
	{"match-nobundle", func(int) dmgm.Job {
		return dmgm.Job{Algorithm: dmgm.AlgoMatch, Params: dmgm.Params{NoBundle: true}}
	}},
	{"neighbors", colorJob("neighbors", false)},
	{"customized-all", colorJob("customized-all", false)},
	{"broadcast", colorJob("broadcast", false)},
	{"distance2", colorJob("", true)},
	{"jp", func(int) dmgm.Job { return dmgm.Job{Algorithm: dmgm.AlgoJP, Params: dmgm.Params{Seed: 3}} }},
}

// colorJob is a speculative coloring job at superstep = n.
func colorJob(comm string, distance2 bool) func(n int) dmgm.Job {
	return func(n int) dmgm.Job {
		return dmgm.Job{Algorithm: dmgm.AlgoColor, Params: dmgm.Params{Superstep: n, Seed: 3, Comm: comm, Distance2: distance2}}
	}
}

// placed runs job through Place and RunJob on w.
func placed(w *mpi.World, ins instance, job dmgm.Job) (*dmgm.JobResult, error) {
	placement, err := dmgm.Place(ins.g, ins.part)
	if err != nil {
		return nil, err
	}
	return dmgm.RunJob(w, ins.g, placement, job)
}

// inproc runs job through Place and RunJob on a fresh in-process world.
func inproc(t *testing.T, ins instance, job dmgm.Job, opts ...mpi.Option) *dmgm.JobResult {
	t.Helper()
	w, err := mpi.NewWorld(nRanks, append([]mpi.Option{mpi.WithDeadline(60 * time.Second)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := placed(w, ins, job)
	if err != nil {
		t.Fatalf("%+v: %v", job, err)
	}
	return res
}

// conform runs every job kind whose algorithm is one of algos on every
// instance, inproc and over tcp, and requires the same text, the same summary
// and — where the run is deterministic — the same traffic.
func conform(t *testing.T, algos ...string) {
	for _, ins := range buildInstances(t) {
		t.Run(ins.name, func(t *testing.T) {
			for _, kind := range jobKinds {
				job := kind.job(ins.g.NumVertices())
				if !slices.Contains(algos, job.Algorithm) {
					continue
				}
				t.Run(kind.name, func(t *testing.T) {
					a := inproc(t, ins, job)
					b := overTCP(t, nRanks, func(w *mpi.World) (*dmgm.JobResult, error) { return placed(w, ins, job) })
					if a.Text != b.Text {
						t.Fatal("inproc and tcp results differ")
					}
					if a.Weight != b.Weight || a.Cardinality != b.Cardinality {
						t.Fatalf("matching: inproc weight %v (%d pairs), tcp %v (%d)", a.Weight, a.Cardinality, b.Weight, b.Cardinality)
					}
					if a.Colors != b.Colors || a.Rounds != b.Rounds || a.Conflicts != b.Conflicts {
						t.Fatalf("inproc (colors %d, rounds %d, conflicts %d) vs tcp (%d, %d, %d)",
							a.Colors, a.Rounds, a.Conflicts, b.Colors, b.Rounds, b.Conflicts)
					}
					// The asynchronous matching's traffic is timing-dependent in
					// general (REQUEST-skipping races), but on the monotone path
					// the cascade is sequential and the counts must agree exactly.
					if (job.Algorithm != dmgm.AlgoMatch || ins.deterministic) && (a.Messages != b.Messages || a.Bytes != b.Bytes) {
						t.Fatalf("traffic: inproc %d msgs/%d B, tcp %d msgs/%d B", a.Messages, a.Bytes, b.Messages, b.Bytes)
					}
				})
			}
		})
	}
}

func TestMatchingConformance(t *testing.T) { conform(t, dmgm.AlgoMatch) }

func TestColoringConformance(t *testing.T) { conform(t, dmgm.AlgoColor, dmgm.AlgoJP) }

// TestTracingInvariance checks that observability is purely passive: the
// same instance run with a full observer (tracing + metrics) must produce
// results byte-identical to an unobserved run — matching and coloring alike.
func TestTracingInvariance(t *testing.T) {
	for _, ins := range buildInstances(t) {
		t.Run(ins.name, func(t *testing.T) {
			match := dmgm.Job{Algorithm: dmgm.AlgoMatch}
			obsr := obs.NewObserver(nRanks, 0)
			plain, traced := inproc(t, ins, match), inproc(t, ins, match, mpi.WithObserver(obsr))
			if fmt.Sprint(plain.Mates) != fmt.Sprint(traced.Mates) || plain.Weight != traced.Weight {
				t.Fatalf("matching differs with tracing on: weight %v vs %v", plain.Weight, traced.Weight)
			}
			if ins.deterministic && (plain.Messages != traced.Messages || plain.Bytes != traced.Bytes) {
				t.Fatalf("matching traffic differs with tracing on: %d/%d vs %d/%d",
					plain.Messages, plain.Bytes, traced.Messages, traced.Bytes)
			}
			// The observer must actually have recorded the run it rode along.
			if len(obsr.Tracer(0).Spans()) == 0 {
				t.Fatal("traced run recorded no spans")
			}

			// Every distributed coloring kernel, in the deterministic regime
			// (one superstep per round).
			for _, job := range []dmgm.Job{
				{Algorithm: dmgm.AlgoColor, Params: dmgm.Params{Comm: "neighbors", Superstep: ins.g.NumVertices(), Seed: 3}},
				{Algorithm: dmgm.AlgoColor, Params: dmgm.Params{Comm: "neighbors", Superstep: ins.g.NumVertices(), Seed: 3, Distance2: true}},
				{Algorithm: dmgm.AlgoJP, Params: dmgm.Params{Seed: 3}},
			} {
				cplain, ctraced := inproc(t, ins, job), inproc(t, ins, job, mpi.WithObserver(obs.NewObserver(nRanks, 0)))
				if cplain.Text != ctraced.Text ||
					cplain.Colors != ctraced.Colors || cplain.Rounds != ctraced.Rounds ||
					cplain.Messages != ctraced.Messages || cplain.Bytes != ctraced.Bytes {
					t.Fatalf("%+v differs with tracing on: (%d colors, %d rounds, %d msgs) vs (%d, %d, %d)", job,
						cplain.Colors, cplain.Rounds, cplain.Messages,
						ctraced.Colors, ctraced.Rounds, ctraced.Messages)
				}
			}
		})
	}
}

// TestTCPMatchingRepeatable runs the TCP matching twice to confirm the
// harness itself is stable (fresh mesh, same answer).
func TestTCPMatchingRepeatable(t *testing.T) {
	ins := buildInstances(t)[2]
	run := func() *dmgm.JobResult {
		return overTCP(t, nRanks, func(w *mpi.World) (*dmgm.JobResult, error) {
			return placed(w, ins, dmgm.Job{Algorithm: dmgm.AlgoMatch})
		})
	}
	a, b := run(), run()
	if fmt.Sprint(a.Mates) != fmt.Sprint(b.Mates) || a.Messages != b.Messages {
		t.Fatalf("two tcp runs disagree: %d vs %d messages", a.Messages, b.Messages)
	}
}

// TestTagFamilyReconciliation pins the per-tag-family accounting on the
// inproc backend (overTCP asserts the tcp side on every run above): user
// families sum exactly to the aggregates, the traffic lands in the family the
// protocol says it should, and the runtime family stays silent — inproc
// collectives are shared-memory, nothing crosses a wire.
func TestTagFamilyReconciliation(t *testing.T) {
	ins := buildInstances(t)[0]
	run := func(job dmgm.Job) *mpi.World {
		w, err := mpi.NewWorld(nRanks, mpi.WithDeadline(60*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := placed(w, ins, job); err != nil {
			t.Fatal(err)
		}
		return w
	}

	w := run(dmgm.Job{Algorithm: dmgm.AlgoMatch})
	assertFamiliesReconcile(t, w, "inproc match")
	total := w.TotalStats()
	if fam := total.ByFamily[mpi.FamilyMatch]; fam.SentMsgs == 0 || fam.SentBytes != total.SentBytes {
		t.Errorf("matching traffic not attributed to the match family: %+v of %+v", fam, total)
	}
	if rt := total.ByFamily[mpi.FamilyRuntime]; rt != (mpi.FamilyStats{}) {
		t.Errorf("inproc run metered runtime wire traffic: %+v", rt)
	}

	w = run(dmgm.Job{Algorithm: dmgm.AlgoColor, Params: dmgm.Params{Superstep: ins.g.NumVertices(), Seed: 3}})
	assertFamiliesReconcile(t, w, "inproc color")
	total = w.TotalStats()
	if fam := total.ByFamily[mpi.FamilyColor]; fam.SentMsgs == 0 || fam.SentBytes != total.SentBytes {
		t.Errorf("coloring traffic not attributed to the color family: %+v of %+v", fam, total)
	}
}

// TestOTLPExportInvariance extends the passivity contract to the OTLP
// pipeline: exporting a run to a collector — healthy or unreachable — must
// not change the algorithm's result, and the healthy export must reconcile
// exactly with what the observer recorded.
func TestOTLPExportInvariance(t *testing.T) {
	ins := buildInstances(t)[0]
	run := func(obsr *obs.Observer) *dmgm.JobResult {
		return inproc(t, ins, dmgm.Job{Algorithm: dmgm.AlgoMatch}, mpi.WithObserver(obsr))
	}
	plain := inproc(t, ins, dmgm.Job{Algorithm: dmgm.AlgoMatch})

	// Healthy collector: the export reconciles with the observer.
	var mu sync.Mutex
	var spansSeen int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ResourceSpans []struct {
				ScopeSpans []struct {
					Spans []struct{} `json:"spans"`
				} `json:"scopeSpans"`
			} `json:"resourceSpans"`
		}
		if r.URL.Path == "/v1/traces" && json.NewDecoder(r.Body).Decode(&req) == nil {
			mu.Lock()
			for _, rs := range req.ResourceSpans {
				for _, ss := range rs.ScopeSpans {
					spansSeen += len(ss.Spans)
				}
			}
			mu.Unlock()
		}
		w.Write([]byte("{}")) //nolint:errcheck
	}))
	defer srv.Close()
	obsr := obs.NewObserver(nRanks, 0)
	healthy := run(obsr)
	exp := obs.NewOTLPExporter(srv.URL, obs.OTLPOptions{Identity: obs.OTLPIdentity{RunID: "conf", WorldSize: nRanks}})
	exp.ExportObserver(obsr, []int{0, 1, 2, 3})
	if err := exp.Close(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	recorded := len(obsr.Driver().Spans())
	for r := 0; r < nRanks; r++ {
		recorded += len(obsr.Tracer(r).Spans())
	}
	mu.Lock()
	if spansSeen != recorded || exp.Dropped() != 0 {
		t.Fatalf("collector saw %d spans, observer holds %d (dropped %d)", spansSeen, recorded, exp.Dropped())
	}
	mu.Unlock()

	// Unreachable collector: the run still matches the unobserved baseline.
	dead := obs.NewOTLPExporter("http://127.0.0.1:1", obs.OTLPOptions{MaxRetries: 1})
	obsr2 := obs.NewObserver(nRanks, 0)
	broken := run(obsr2)
	dead.ExportObserver(obsr2, []int{0, 1, 2, 3})
	dead.Close(10 * time.Second) //nolint:errcheck // drops are the point
	for name, res := range map[string]*dmgm.JobResult{"healthy": healthy, "broken": broken} {
		if fmt.Sprint(plain.Mates) != fmt.Sprint(res.Mates) || plain.Weight != res.Weight {
			t.Fatalf("%s export changed the matching: weight %v vs %v", name, plain.Weight, res.Weight)
		}
	}
	if dead.Dropped() == 0 {
		t.Error("unreachable collector must count drops")
	}
}
