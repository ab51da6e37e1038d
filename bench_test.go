// Package repro's root benchmarks regenerate every table and figure of the
// paper (via the internal/expt harness) and additionally benchmark the
// design choices DESIGN.md calls out for ablation: message bundling in the
// matching protocol, the coloring communication modes (FIAB / FIAC /
// neighbor-customized), superstep sizes, conflict-resolution policies, and
// interior/boundary vertex orders.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Per-figure benches print the same Actual/Ideal series the paper plots
// (once per benchmark, not per iteration).
package repro

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/order"
	"repro/internal/partition"
)

// benchOpts returns harness options sized for benchmarking: moderate
// instances, output shown once via b.Logf-style printing suppressed.
func benchOpts() expt.Options {
	return expt.Options{
		Out:  io.Discard,
		Seed: 3,
		// Bench-scale: smaller than the default CLI run, bigger than Quick.
		WeakSubgrid:       48,
		WeakProcs:         []int{1, 4, 16},
		WeakModelProcs:    []int{256, 1024, 4096, 16384},
		StrongGrid:        256,
		StrongProcs:       []int{1, 2, 4, 8, 16},
		StrongModelProcs:  []int{64, 256, 1024, 4096, 16384},
		CircuitSide:       96,
		CircuitProcs:      []int{2, 4, 8, 16},
		CircuitModelProcs: []int{64, 256, 1024, 4096},
	}
}

// --- Table 1.1 ---------------------------------------------------------

func BenchmarkTable11MatchingQuality(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := expt.Table11(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// --- Figures 5.1–5.4 ----------------------------------------------------

func BenchmarkFig51WeakMatching(b *testing.B) {
	benchGridFigure(b, true, true)
}

func BenchmarkFig51WeakColoring(b *testing.B) {
	benchGridFigure(b, true, false)
}

func BenchmarkFig52StrongMatching(b *testing.B) {
	benchGridFigure(b, false, true)
}

func BenchmarkFig52StrongColoring(b *testing.B) {
	benchGridFigure(b, false, false)
}

// benchGridFigure runs one measured series of the grid scaling studies; the
// full two-algorithm figure (with the model extension) runs once up front so
// the series is reported, then the timed loop re-measures the largest
// measured configuration — the figure's dominant cost.
func benchGridFigure(b *testing.B, weak, isMatching bool) {
	o := benchOpts()
	var err error
	if weak {
		_, _, err = expt.Fig51(o)
	} else {
		_, _, err = expt.Fig52(o)
	}
	if err != nil {
		b.Fatal(err)
	}
	// Timed portion: the largest measured point.
	in, p := expt.GridInstance{Side: o.StrongGrid, Seed: o.Seed}, o.StrongProcs[len(o.StrongProcs)-1]
	if weak {
		in, p = expt.GridInstance{Side: o.WeakSubgrid, Weak: true, Seed: o.Seed}, o.WeakProcs[len(o.WeakProcs)-1]
	}
	shares, err := in.Shares(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if isMatching {
			if _, err := expt.MeasureMatching(shares, matching.ParallelOptions{}); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := expt.MeasureColoring(shares, coloring.ParallelOptions{Seed: o.Seed, SuperstepSize: o.Superstep}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig53CircuitMatching(b *testing.B) {
	o := benchOpts()
	if _, err := expt.Fig53(o); err != nil {
		b.Fatal(err)
	}
	bp, err := gen.CircuitBipartite(o.CircuitSide, o.CircuitSide, 0.45, o.Seed)
	if err != nil {
		b.Fatal(err)
	}
	shares, err := expt.CircuitInstance{G: bp.Graph, Refine: true, Seed: o.Seed}.Shares(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.MeasureMatching(shares, matching.ParallelOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig54CircuitColoring(b *testing.B) {
	o := benchOpts()
	if _, err := expt.Fig54(o); err != nil {
		b.Fatal(err)
	}
	g, err := gen.Circuit(o.CircuitSide, o.CircuitSide, 0.45, false, o.Seed)
	if err != nil {
		b.Fatal(err)
	}
	shares, err := expt.CircuitInstance{G: g, Seed: o.Seed}.Shares(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.MeasureColoring(shares, coloring.ParallelOptions{Seed: o.Seed, SuperstepSize: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ----------------------------------------------------------

// ablationMatchingShares prepares a 16-rank grid distribution whose cross
// traffic is heavy enough for bundling to matter.
func ablationMatchingShares(b *testing.B) []*dgraph.DistGraph {
	b.Helper()
	shares, err := expt.GridInstance{Side: 256, Seed: 7}.Shares(16)
	if err != nil {
		b.Fatal(err)
	}
	return shares
}

func BenchmarkAblationBundlingOn(b *testing.B) {
	shares := ablationMatchingShares(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := expt.MeasureMatching(shares, matching.ParallelOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(m.Traffic.SentMsgs), "msgs")
		}
	}
}

func BenchmarkAblationBundlingOff(b *testing.B) {
	shares := ablationMatchingShares(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := expt.MeasureMatching(shares, matching.ParallelOptions{MaxBundleBytes: 17})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(m.Traffic.SentMsgs), "msgs")
		}
	}
}

// ablationColoringShares prepares a 12-rank irregular distribution.
func ablationColoringShares(b *testing.B) []*dgraph.DistGraph {
	b.Helper()
	_, shares, err := expt.AblationInput(expt.Options{CircuitSide: 120, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	return shares
}

func benchColoring(b *testing.B, opt coloring.ParallelOptions) {
	shares := ablationColoringShares(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := expt.MeasureColoring(shares, opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(m.Traffic.SentMsgs), "msgs")
			b.ReportMetric(float64(m.NumColors), "colors")
			b.ReportMetric(float64(m.Epochs), "rounds")
		}
	}
}

func BenchmarkAblationCommModeNeighbors(b *testing.B) {
	benchColoring(b, coloring.ParallelOptions{Seed: 1, CommMode: coloring.CommNeighbors})
}

func BenchmarkAblationCommModeCustomizedAll(b *testing.B) {
	benchColoring(b, coloring.ParallelOptions{Seed: 1, CommMode: coloring.CommCustomizedAll})
}

func BenchmarkAblationCommModeBroadcast(b *testing.B) {
	benchColoring(b, coloring.ParallelOptions{Seed: 1, CommMode: coloring.CommBroadcast})
}

func BenchmarkAblationSuperstep(b *testing.B) {
	for _, s := range []int{1, 10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			benchColoring(b, coloring.ParallelOptions{Seed: 1, SuperstepSize: s})
		})
	}
}

func BenchmarkAblationConflictPolicyRandom(b *testing.B) {
	benchColoring(b, coloring.ParallelOptions{Seed: 1, Conflict: coloring.ConflictRandom, SuperstepSize: 50})
}

func BenchmarkAblationConflictPolicyMinID(b *testing.B) {
	benchColoring(b, coloring.ParallelOptions{Seed: 1, Conflict: coloring.ConflictMinID, SuperstepSize: 50})
}

func BenchmarkAblationVertexOrder(b *testing.B) {
	for _, o := range []coloring.VertexOrder{coloring.BoundaryFirst, coloring.InteriorFirst, coloring.Interleaved} {
		b.Run(o.String(), func(b *testing.B) {
			benchColoring(b, coloring.ParallelOptions{Seed: 1, Order: o})
		})
	}
}

func BenchmarkAblationJonesPlassmannBaseline(b *testing.B) {
	shares := ablationColoringShares(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := make([]*coloring.ParallelResult, len(shares))
		var mu sync.Mutex
		err := mpi.Run(len(shares), func(c *mpi.Comm) error {
			res, err := coloring.JonesPlassmann(c, shares[c.Rank()], 1, 0)
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = res
			mu.Unlock()
			return nil
		}, mpi.WithDeadline(5*time.Minute))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(results[0].Rounds), "rounds")
		}
	}
}

// --- Micro-benchmarks of the sequential kernels -------------------------

func BenchmarkSequentialMatchingGrid(b *testing.B) {
	g, err := gen.Grid2D(512, 512, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := matching.LocallyDominant(g)
		if m.Cardinality() == 0 {
			b.Fatal("empty matching")
		}
	}
}

// BenchmarkSequentialMatchingRMAT runs the sequential matching on rmat16's
// graph, the instance BenchmarkMatchingOneRank/rmat16 runs on one rank.
func BenchmarkSequentialMatchingRMAT(b *testing.B) {
	g, err := rmat16Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matching.LocallyDominant(g)
	}
}

// kernelShare is a solve_* input of bench/: the 512² weighted grid on a 2×2
// block cut, or RMAT-16 on a 4-way multilevel cut.
type kernelShare struct {
	build  func() (*graph.Graph, *partition.Partition, error)
	shares []*dgraph.DistGraph // built once, by the first benchmark that needs them
}

var grid512, rmat16 = &kernelShare{build: func() (*graph.Graph, *partition.Partition, error) {
	g, err := gen.Grid2D(512, 512, true, 1)
	if err != nil {
		return nil, nil, err
	}
	part, err := partition.Grid2D(512, 512, 2, 2)
	return g, part, err
}}, &kernelShare{build: func() (*graph.Graph, *partition.Partition, error) {
	g, err := rmat16Graph()
	if err != nil {
		return nil, nil, err
	}
	part, err := partition.Multilevel(g, 4, partition.MultilevelOptions{Seed: 1})
	return g, part, err
}}

// rmat16Graph is the RMAT-16 graph of the solve_rmat* workloads.
func rmat16Graph() (*graph.Graph, error) { return gen.RMAT(16, 8, true, 1) }

// world returns in's shares, built on first use, and a world to run them on.
func (in *kernelShare) world(tb testing.TB) ([]*dgraph.DistGraph, *mpi.World) {
	if in.shares == nil {
		g, part, err := in.build()
		if err == nil {
			in.shares, err = dgraph.Distribute(g, part)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	w, err := mpi.NewWorld(len(in.shares), mpi.WithDeadline(time.Minute))
	if err != nil {
		tb.Fatal(err)
	}
	return in.shares, w
}

// benchKernel times job — Reset + Run of a distributed kernel + Gather, what
// one solve_* job of bench/ times — on in's shares and a world built once:
// the kernel alone, with no harness around it. job is handed the iteration.
func benchKernel(b *testing.B, in *kernelShare, job func(w *mpi.World, shares []*dgraph.DistGraph, i int) error) {
	shares, w := in.world(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Reset(); err != nil {
			b.Fatal(err)
		}
		if err := job(w, shares, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelMatching times the distributed matching as the solve_*
// workloads run it.
func BenchmarkParallelMatching(b *testing.B) {
	for _, tc := range []struct {
		name string
		in   *kernelShare
		opt  matching.ParallelOptions
	}{
		{"grid512", grid512, matching.ParallelOptions{}},
		{"rmat16", rmat16, matching.ParallelOptions{}},
		{"rmat16_unbundled", rmat16, matching.ParallelOptions{MaxBundleBytes: matching.RecordBytes}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchKernel(b, tc.in, matchingJob(tc.opt))
		})
	}
}

// oneRank is in's graph on a single rank, where every vertex is interior
// and the distributed kernel runs as a sequential one.
func oneRank(in *kernelShare) *kernelShare {
	return &kernelShare{build: func() (*graph.Graph, *partition.Partition, error) {
		g, _, err := in.build()
		if err != nil {
			return nil, nil, err
		}
		part, err := partition.Block1D(g, 1)
		return g, part, err
	}}
}

var grid512One, rmat16One = oneRank(grid512), oneRank(rmat16)

// BenchmarkMatchingOneRank times the distributed matching kernel on one rank
// (Reset + Run + Gather), the rank-local loop alone, to be read beside
// BenchmarkSequentialMatching* and the best sequential code.
func BenchmarkMatchingOneRank(b *testing.B) {
	for _, tc := range []struct {
		name string
		in   *kernelShare
	}{{"grid512", grid512One}, {"rmat16", rmat16One}} {
		b.Run(tc.name, func(b *testing.B) {
			benchKernel(b, tc.in, matchingJob(matching.ParallelOptions{}))
		})
	}
}

// matchingJob is one solve_* matching job for benchKernel: the distributed
// matching with opt, then Gather.
func matchingJob(opt matching.ParallelOptions) func(w *mpi.World, shares []*dgraph.DistGraph, i int) error {
	var results []*matching.ParallelResult
	return func(w *mpi.World, shares []*dgraph.DistGraph, _ int) error {
		if results == nil {
			results = make([]*matching.ParallelResult, len(shares))
		}
		if err := w.Run(func(c *mpi.Comm) (err error) {
			results[c.Rank()], err = matching.Parallel(c, shares[c.Rank()], opt)
			return err
		}); err != nil {
			return err
		}
		_, err := matching.Gather(shares, results)
		return err
	}
}

// BenchmarkParallelColoring times the distributed distance-1 coloring with
// the options of the three solve_* workloads, on a fresh seed each job as
// bench/ gives it.
func BenchmarkParallelColoring(b *testing.B) {
	for _, tc := range []struct {
		name string
		in   *kernelShare
		opt  coloring.ParallelOptions
	}{
		{"grid512", grid512, coloring.ParallelOptions{SuperstepSize: 1000, CommMode: coloring.CommNeighbors}},
		{"rmat16", rmat16, coloring.ParallelOptions{SuperstepSize: 1000, CommMode: coloring.CommNeighbors}},
		{"rmat16_chatty", rmat16, chattyColoring},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchKernel(b, tc.in, coloringJob(tc.opt))
		})
	}
}

// chattyColoring is solve_rmat_chatty's coloring: broadcast (FIAB) in
// supersteps of 100.
var chattyColoring = coloring.ParallelOptions{SuperstepSize: 100, CommMode: coloring.CommBroadcast}

// coloringJob is one solve_* coloring job for benchKernel: the distributed
// distance-1 coloring with opt on a fresh seed, then Gather.
func coloringJob(opt coloring.ParallelOptions) func(w *mpi.World, shares []*dgraph.DistGraph, i int) error {
	var results []*coloring.ParallelResult
	return func(w *mpi.World, shares []*dgraph.DistGraph, i int) error {
		if results == nil {
			results = make([]*coloring.ParallelResult, len(shares))
		}
		opt := opt
		opt.Seed = 1_000_003 + uint64(i)
		if err := w.Run(func(c *mpi.Comm) (err error) {
			results[c.Rank()], err = coloring.Parallel(c, shares[c.Rank()], opt)
			return err
		}); err != nil {
			return err
		}
		_, err := coloring.Gather(shares, results)
		return err
	}
}

// TestChattyColoringAllocations pins FIAB's reuse of consumed inbound
// bundles for its messages: a rmat16_chatty coloring job allocates fewer
// than 1000 times, where building every superstep's messages from nothing
// took about 7.7k.
func TestChattyColoringAllocations(t *testing.T) {
	shares, w := rmat16.world(t)
	job, i := coloringJob(chattyColoring), 0
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := w.Reset(); err != nil {
			t.Fatal(err)
		}
		if err := job(w, shares, i); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs >= 1000 {
		t.Errorf("a rmat16_chatty coloring job allocates %.0f times, want fewer than 1000", allocs)
	}
}

func BenchmarkSequentialColoringGrid(b *testing.B) {
	g, err := gen.Grid2D(512, 512, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coloring.Greedy(g, order.Natural, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialColoringSmallestLast(b *testing.B) {
	g, err := gen.Grid2D(512, 512, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coloring.Greedy(g, order.SmallestLast, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultilevelPartition times the partitioner on a 150² circuit at
// P = 16, on serve_cold_inline's shape, a 128² circuit at P = 4, and on the
// solve_rmat set-up's, RMAT-16 at P = 4.
func BenchmarkMultilevelPartition(b *testing.B) {
	for _, c := range []struct {
		name  string
		p     int
		input func() (*graph.Graph, error)
	}{
		{"circuit150", 16, func() (*graph.Graph, error) { return gen.Circuit(150, 150, 0.45, true, 1) }},
		{"circuit128", 4, func() (*graph.Graph, error) { return gen.Circuit(128, 128, 0.45, true, 1) }},
		{"rmat16", 4, rmat16Graph},
	} {
		b.Run(fmt.Sprintf("%s/P=%d", c.name, c.p), func(b *testing.B) {
			g, err := c.input()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := partition.Multilevel(g, c.p, partition.MultilevelOptions{Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGridGeneration(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Grid2D(512, 512, true, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactBipartite(b *testing.B) {
	bp, err := gen.RandomBipartite(500, 500, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.ExactBipartite(bp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Distance-2 coloring ------------------------------------------------

func BenchmarkDistance2Coloring(b *testing.B) {
	g, err := gen.Grid2D(256, 256, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coloring.GreedyDistance2(g, order.Natural, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistance2Distributed(b *testing.B) {
	g, err := gen.Circuit(60, 60, 0.45, false, 3)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.BFS(g, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := make([]*coloring.ParallelResult, len(shares))
		var mu sync.Mutex
		err := mpi.Run(len(shares), func(c *mpi.Comm) error {
			res, err := coloring.ParallelDistance2(c, shares[c.Rank()], coloring.ParallelOptions{Seed: 1})
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = res
			mu.Unlock()
			return nil
		}, mpi.WithDeadline(5*time.Minute))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(results[0].NumColors), "colors")
			b.ReportMetric(float64(results[0].Rounds), "rounds")
		}
	}
}

// --- Non-kernel stages of a served job ----------------------------------
//
// What a warm dmgm-serve job pays around its kernel: building the per-rank
// shares, resolving wire ids to local indices, rendering the result text.

func BenchmarkDistribute(b *testing.B) {
	grid, err := gen.Grid2D(512, 512, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	rmat, err := rmat16Graph()
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{{"grid512", grid}, {"rmat16", rmat}} {
		part, err := partition.Multilevel(in.g, 4, partition.MultilevelOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			var shares []*dgraph.DistGraph
			for i := 0; i < b.N; i++ {
				if shares, err = dgraph.Distribute(in.g, part); err != nil {
					b.Fatal(err)
				}
			}
			// What a retained placement costs per vertex of the graph.
			var bytes int64
			for _, d := range shares {
				bytes += d.Bytes()
			}
			b.ReportMetric(float64(bytes)/float64(in.g.NumVertices()), "B/vertex")
		})
	}
}

func BenchmarkLocalOf(b *testing.B) {
	g, err := gen.Grid2D(512, 512, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.Grid2D(512, 512, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		b.Fatal(err)
	}
	d := shares[3]
	n := d.NLocal + d.NGhost
	for _, tc := range []struct {
		name string
		id   func(i int) int64
		hit  bool
	}{
		{"hit", func(i int) int64 { return d.GlobalID[i%n] }, true},
		// Rank 0's block: nothing in it is owned by or borders rank 3.
		{"miss", func(i int) int64 { return int64(i%200)*512 + int64(i%251) }, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := d.LocalOf(tc.id(i)); ok != tc.hit {
					b.Fatalf("LocalOf(%d) found = %v", tc.id(i), ok)
				}
			}
		})
	}
}

func BenchmarkWriteMates(b *testing.B) {
	g, err := gen.Grid2D(512, 512, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	m := matching.LocallyDominant(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := matching.WriteMates(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteColors(b *testing.B) {
	g, err := gen.Grid2D(512, 512, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	c, err := coloring.Greedy(g, order.Natural, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coloring.WriteColors(io.Discard, c); err != nil {
			b.Fatal(err)
		}
	}
}
