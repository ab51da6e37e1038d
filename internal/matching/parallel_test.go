package matching

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/partition"
)

// runParallel distributes g over part, runs the parallel matching on every
// rank, and returns the assembled global matching plus per-rank results.
func runParallel(t *testing.T, g *graph.Graph, part *partition.Partition, opt ParallelOptions, mpiOpts ...mpi.Option) (Mates, []*ParallelResult) {
	t.Helper()
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ParallelResult, part.P)
	var mu sync.Mutex
	mpiOpts = append(mpiOpts, mpi.WithDeadline(30*time.Second))
	err = mpi.Run(part.P, func(c *mpi.Comm) error {
		res, err := Parallel(c, shares[c.Rank()], opt)
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	}, mpiOpts...)
	if err != nil {
		t.Fatal(err)
	}
	mates, err := Gather(shares, results)
	if err != nil {
		t.Fatal(err)
	}
	return mates, results
}

func TestParallelTriangleAcrossRanks(t *testing.T) {
	// The paper's Fig. 3.1 scenario: one vertex per processor.
	g := paperTriangle(t)
	part := &partition.Partition{P: 3, Part: []int32{0, 1, 2}}
	mates, _ := runParallel(t, g, part, ParallelOptions{})
	if mates[0] != 1 || mates[1] != 0 || mates[2] != graph.None {
		t.Fatalf("mates = %v, want 0-1 matched, 2 failed", mates)
	}
}

func TestParallelMatchesSequentialOnGrid(t *testing.T) {
	g, err := gen.Grid2D(20, 20, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	gr := Greedy(g)
	for _, p := range []int{1, 2, 4, 9} {
		pr, pc := partition.ProcessorGrid(p)
		part, err := partition.Grid2D(20, 20, pr, pc)
		if err != nil {
			t.Fatal(err)
		}
		mates, _ := runParallel(t, g, part, ParallelOptions{})
		if err := mates.VerifyMaximal(g); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for v := range mates {
			if mates[v] != gr[v] {
				t.Fatalf("p=%d: vertex %d mate %d, greedy %d", p, v, mates[v], gr[v])
			}
		}
	}
}

func TestParallelWeightInvariantAcrossP(t *testing.T) {
	// Section 5.2: "the sum of the weights of edges in the computed matching
	// remained the same, regardless of the number of processors used."
	g, err := gen.ErdosRenyi(300, 1500, true, 13)
	if err != nil {
		t.Fatal(err)
	}
	want := Greedy(g).Weight(g)
	for _, p := range []int{1, 2, 3, 5, 8} {
		part, err := partition.BFS(g, p, 99)
		if err != nil {
			t.Fatal(err)
		}
		mates, results := runParallel(t, g, part, ParallelOptions{})
		if got := mates.Weight(g); got != want {
			t.Fatalf("p=%d: weight %g, want %g", p, got, want)
		}
		// Distributed weight bookkeeping must agree with the gathered one.
		var distW float64
		for _, r := range results {
			distW += r.LocalWeight
		}
		if diff := distW - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("p=%d: distributed weight %g, want %g", p, distW, want)
		}
	}
}

func TestParallelOnCircuitWithMultilevelPartition(t *testing.T) {
	g, err := gen.Circuit(40, 40, 0.45, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Multilevel(g, 6, partition.MultilevelOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	gr := Greedy(g)
	mates, _ := runParallel(t, g, part, ParallelOptions{})
	if err := mates.VerifyMaximal(g); err != nil {
		t.Fatal(err)
	}
	if mates.Weight(g) != gr.Weight(g) {
		t.Fatalf("weight %g, greedy %g", mates.Weight(g), gr.Weight(g))
	}
}

func TestParallelUnderMessagePerturbation(t *testing.T) {
	// The protocol must tolerate arbitrary cross-sender message orderings
	// (the paper's "if the two SUCCEEDED messages arrive in reverse order"
	// discussion). Perturb delivery with several seeds.
	g, err := gen.ErdosRenyi(120, 500, true, 21)
	if err != nil {
		t.Fatal(err)
	}
	want := Greedy(g).Weight(g)
	part, err := partition.Random(g, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		mates, _ := runParallel(t, g, part, ParallelOptions{}, mpi.WithPerturbation(seed))
		if err := mates.VerifyMaximal(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := mates.Weight(g); got != want {
			t.Fatalf("seed %d: weight %g, want %g", seed, got, want)
		}
	}
}

func TestParallelWithTiedWeights(t *testing.T) {
	// Integer weights with many ties exercise the global-id tie-breaking.
	base, err := gen.Grid2D(12, 12, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Reweight(base, gen.WeightInteger, 5)
	if err != nil {
		t.Fatal(err)
	}
	gr := Greedy(g)
	part, err := partition.Grid2D(12, 12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	mates, _ := runParallel(t, g, part, ParallelOptions{})
	for v := range mates {
		if mates[v] != gr[v] {
			t.Fatalf("vertex %d mate %d, greedy %d", v, mates[v], gr[v])
		}
	}
}

func TestParallelUnweightedGraph(t *testing.T) {
	g, err := gen.Grid2D(10, 10, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	g.W = nil // fully unweighted path
	part, err := partition.Block1D(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	mates, _ := runParallel(t, g, part, ParallelOptions{})
	if err := mates.VerifyMaximal(g); err != nil {
		t.Fatal(err)
	}
	gr := Greedy(g)
	for v := range mates {
		if mates[v] != gr[v] {
			t.Fatalf("vertex %d mate %d, greedy %d", v, mates[v], gr[v])
		}
	}
}

func TestParallelBundlingReducesMessages(t *testing.T) {
	g, err := gen.Grid2D(30, 30, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Grid2D(30, 30, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, bundled := runParallel(t, g, part, ParallelOptions{})
	_, single := runParallel(t, g, part, ParallelOptions{MaxBundleBytes: RecordBytes})
	var bundledMsgs, singleMsgs, bundledRecs, singleRecs int64
	for i := range bundled {
		bundledMsgs += bundled[i].Bundles
		singleMsgs += single[i].Bundles
		bundledRecs += bundled[i].Records
		singleRecs += single[i].Records
	}
	// Record counts may differ slightly between schedules (the paper's
	// Fig. 3.1 discussion: an extra REQUEST can occur depending on message
	// arrival order), but must stay within ~15% of each other.
	if diff := bundledRecs - singleRecs; diff > singleRecs/8 || diff < -singleRecs/8 {
		t.Fatalf("record counts diverge: %d vs %d", bundledRecs, singleRecs)
	}
	if bundledMsgs*2 > singleMsgs {
		t.Fatalf("bundling sent %d messages vs %d unbundled — no aggregation win", bundledMsgs, singleMsgs)
	}
}

func TestParallelSingleRankNoTraffic(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 400, true, 23)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := partition.Block1D(g, 1)
	_, results := runParallel(t, g, part, ParallelOptions{})
	if results[0].Records != 0 || results[0].Bundles != 0 {
		t.Fatalf("single rank sent traffic: %+v", results[0])
	}
	if results[0].OuterIterations != 0 {
		t.Fatalf("single rank entered outer loop %d times", results[0].OuterIterations)
	}
}

func TestParallelRejectsMismatchedShares(t *testing.T) {
	g, _ := gen.Grid2D(4, 4, true, 1)
	part, _ := partition.Block1D(g, 2)
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(2, func(c *mpi.Comm) error {
		// Hand every rank the same (wrong) share. Rank 1 must reject it;
		// rank 0 may block waiting for traffic, which the deadline catches.
		_, err := Parallel(c, shares[0], ParallelOptions{})
		if c.Rank() != 0 && err == nil {
			return fmt.Errorf("rank %d accepted rank 0's share", c.Rank())
		}
		return err
	}, mpi.WithDeadline(2*time.Second))
	// Rank 1 errors out while rank 0 may block; accept either the
	// explicit error or a deadline error.
	if err == nil {
		t.Fatal("mismatched shares not rejected")
	}
}

func TestParallelManyRandomGraphsAndPartitions(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		n := 30 + int(seed)*15
		g, err := gen.ErdosRenyi(n, int64(n)*4, true, seed)
		if err != nil {
			t.Fatal(err)
		}
		p := int(seed)%5 + 1
		part, err := partition.Random(g, p, seed^0xff)
		if err != nil {
			t.Fatal(err)
		}
		gr := Greedy(g)
		mates, _ := runParallel(t, g, part, ParallelOptions{})
		if err := mates.VerifyMaximal(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if mates.Weight(g) != gr.Weight(g) {
			t.Fatalf("seed %d (n=%d p=%d): weight %g, greedy %g",
				seed, n, p, mates.Weight(g), gr.Weight(g))
		}
	}
}

func TestParallelStarContention(t *testing.T) {
	// A star spread across ranks: every leaf requests the hub; exactly one
	// wins, all others must fail and terminate.
	const leaves = 12
	edges := make([]graph.Edge, leaves)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: graph.Vertex(i + 1), W: float64(i + 1)}
	}
	g, err := graph.BuildUndirected(leaves+1, edges, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int32, leaves+1)
	for i := range parts {
		parts[i] = int32(i % 4)
	}
	part := &partition.Partition{P: 4, Part: parts}
	mates, _ := runParallel(t, g, part, ParallelOptions{})
	if mates[0] != graph.Vertex(leaves) {
		t.Fatalf("hub matched %d, want heaviest leaf %d", mates[0], leaves)
	}
	matched := 0
	for _, u := range mates {
		if u != graph.None {
			matched++
		}
	}
	if matched != 2 {
		t.Fatalf("%d matched vertices, want 2", matched)
	}
}

// TestGatherRefusesDisagreeingRanks: the assembly is dgraph.Gather's, the
// mate-symmetry check on top of it is this package's — the last line of
// defence against a protocol bug handing back a non-matching.
func TestGatherRefusesDisagreeingRanks(t *testing.T) {
	g := paperTriangle(t)
	shares, err := dgraph.Distribute(g, &partition.Partition{P: 3, Part: []int32{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	results := func(mates ...int64) []*ParallelResult {
		out := make([]*ParallelResult, len(mates))
		for rank, m := range mates {
			out[rank] = &ParallelResult{MateGlobal: []int64{m}}
		}
		return out
	}
	if mates, err := Gather(shares, results(1, 0, -1)); err != nil || mates[0] != 1 || mates[1] != 0 || mates[2] != graph.None {
		t.Fatalf("agreeing ranks: %v, %v", mates, err)
	}
	for name, bad := range map[string][]*ParallelResult{
		"0 names 1, 1 names 2":      results(1, 2, 1),
		"0 names 1, 1 is unmatched": results(1, -1, -1),
		"mate outside the graph":    results(7, -1, -1),
		"rank without a result":     {results(1)[0], nil, results(-1)[0]},
	} {
		if _, err := Gather(shares, bad); err == nil {
			t.Errorf("%s: gathered without complaint", name)
		}
	}
}

// TestParallelStopsWhenCanceled pins the kernel's own check of the cancel
// signal: a rank whose world is canceled before it starts runs the
// initialization and returns mpi.ErrCanceled at the head of its first outer
// iteration, without waiting for traffic.
func TestParallelStopsWhenCanceled(t *testing.T) {
	g, err := gen.Grid2D(20, 20, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Grid2D(20, 20, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(2, mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var rank0 error
	err = w.Run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			w.Cancel()
		}
		res, err := Parallel(c, shares[c.Rank()], ParallelOptions{})
		if c.Rank() == 0 {
			if res != nil {
				rank0 = fmt.Errorf("rank 0 returned a result from a canceled world")
			} else {
				rank0 = err
			}
		}
		return err
	})
	if !errors.Is(err, mpi.ErrCanceled) || !errors.Is(rank0, mpi.ErrCanceled) {
		t.Fatalf("Run = %v, rank 0's Parallel = %v; want mpi.ErrCanceled from both", err, rank0)
	}
}

// runHooked runs the kernel on every rank of shares like Parallel does,
// under perturbation seed pert (0: none), but lets hook, if set, set the
// test-only observers of each rank's state before it runs.
func runHooked(t *testing.T, shares []*dgraph.DistGraph, opt ParallelOptions, pert uint64, hook func(rank int, s *matchState), mpiOpts ...mpi.Option) []*ParallelResult {
	t.Helper()
	mpiOpts = append(mpiOpts, mpi.WithDeadline(30*time.Second))
	if pert > 0 {
		mpiOpts = append(mpiOpts, mpi.WithPerturbation(pert))
	}
	results := make([]*ParallelResult, len(shares))
	err := mpi.Run(len(shares), func(c *mpi.Comm) error {
		r, err := newRank(c, shares[c.Rank()], opt)
		if err != nil {
			return err
		}
		s := &matchState{rank: r}
		if hook != nil {
			hook(c.Rank(), s)
		}
		if err := s.run(); err != nil {
			return err
		}
		results[c.Rank()] = s.result()
		return nil
	}, mpiOpts...)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestDrainWalksWhatTheRowWalkFinds: a drain finds the free owned vertices
// whose candidate just retired on the retired vertex's by list, not by
// walking its row. At every step of every drain — small random graphs,
// weighted and all-ties, over 1 to 4 ranks, bundled and unbundled, plain and
// under perturbation — the walk of the packed records' list through the
// guard finds exactly the vertices the row walk finds, and the matching is
// the greedy one.
func TestDrainWalksWhatTheRowWalkFinds(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		n := 20 + int(seed)*7
		g, err := gen.ErdosRenyi(n, int64(n)*3, seed%3 != 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		gr := Greedy(g)
		for p := 1; p <= 4; p++ {
			part, err := partition.Random(g, p, seed)
			if err != nil {
				t.Fatal(err)
			}
			shares, err := dgraph.Distribute(g, part)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range []ParallelOptions{{}, {MaxBundleBytes: RecordBytes}} {
				for pert := uint64(0); pert <= 3; pert++ {
					name := fmt.Sprintf("n=%d p=%d bundle=%d perturbation=%d", n, p, opt.MaxBundleBytes, pert)
					steps := make([]int, p)
					results := runHooked(t, shares, opt, pert, func(rank int, s *matchState) {
						s.onDrain = func(v int32) {
							steps[rank]++
							var list, row []int32
							for x := s.by[v]; x != 0; x = s.st[x-1].next {
								if w := x - 1; s.st[w].cm == v && !s.gone[w] {
									list = append(list, w)
								}
							}
							for _, w := range s.d.Neighbors(v) {
								if !s.d.IsGhost(w) && s.st[w].cm == v && !s.gone[w] {
									row = append(row, w)
								}
							}
							slices.Sort(list) // as sets: a row ascends in global id, not in local index
							slices.Sort(row)
							if !slices.Equal(list, row) {
								t.Errorf("%s rank %d: drain of %d walks %v, the row walk finds %v", name, rank, v, list, row)
							}
						}
					})
					mates, err := Gather(shares, results)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Equal(mates, gr) {
						t.Fatalf("%s: differs from the greedy matching", name)
					}
					total := 0
					for _, k := range steps {
						total += k
					}
					if total != n {
						t.Fatalf("%s: %d drain steps, want one per vertex (%d)", name, total, n)
					}
				}
			}
		}
	}
}

// ledgerInput is a graph distributed for the per-edge tests.
type ledgerInput struct {
	name   string
	g      *graph.Graph
	shares []*dgraph.DistGraph
}

// ledgerInputs are the graphs and cuts the per-edge tests run on: an ER
// graph, a grid and a small RMAT graph, each on a random and on a multilevel
// 4-way cut.
func ledgerInputs(t *testing.T) []ledgerInput {
	t.Helper()
	er, err := gen.ErdosRenyi(150, 600, true, 31)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid2D(16, 16, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(8, 6, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	var out []ledgerInput
	for _, in := range []struct {
		name string
		g    *graph.Graph
	}{{"er", er}, {"grid", grid}, {"rmat", rmat}} {
		random, err := partition.Random(in.g, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		multilevel, err := partition.Multilevel(in.g, 4, partition.MultilevelOptions{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []struct {
			name string
			part *partition.Partition
		}{{"random", random}, {"multilevel", multilevel}} {
			shares, err := dgraph.Distribute(in.g, cut.part)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, ledgerInput{in.name + "/" + cut.name, in.g, shares})
		}
	}
	return out
}

// ledgerWire is an in-process transport that books every matching record
// put on it against the directed arc it crosses, named by global ids: the
// kernel's own walker reads each record's edge index, which is looked up in
// the pair table the receiving share keeps with the sender, whose ghost end
// is the sending vertex.
type ledgerWire struct {
	*transport.Inproc
	shares []*dgraph.DistGraph
	mu     sync.Mutex
	arcs   map[[2]int64]*[2]int // REQUESTs, then SUCCEEDED/FAILED
}

func (w *ledgerWire) Send(m transport.Msg) error {
	if m.Tag == matchTag {
		d := w.shares[m.To]
		edges := d.PairWith(m.From).Edges
		w.mu.Lock()
		rec := recordCodec.Walk(m.From, m.Tag, m.Payload, len(edges))
		for rec.Next() {
			e := edges[rec.Index]
			a := [2]int64{d.GlobalOf(e.U), d.GlobalOf(e.V)}
			if w.arcs[a] == nil {
				w.arcs[a] = new([2]int)
			}
			if rec.X == msgRequest {
				w.arcs[a][0]++
			} else {
				w.arcs[a][1]++
			}
		}
		w.mu.Unlock()
	}
	return w.Inproc.Send(m)
}

// TestParallelRecordLedger holds Section 3.2's message bound edge by edge,
// after Hoepman's analysis, on every record the ranks put on the wire: each
// directed cross arc carries at most one REQUEST and at most one SUCCEEDED or
// FAILED, each cross edge at most three records, and two REQUESTs cross an
// edge only if it is matched — bundled and unbundled, plain and under
// perturbation seeds. A vertex that acted on a candidate twice, say once
// from a drain and once from the initial sweep, would show as a second
// REQUEST.
func TestParallelRecordLedger(t *testing.T) {
	for _, in := range ledgerInputs(t) {
		gr := Greedy(in.g)
		for _, opt := range []ParallelOptions{{}, {MaxBundleBytes: RecordBytes}} {
			for pert := uint64(0); pert <= 3; pert++ {
				name := fmt.Sprintf("%s bundle=%d perturbation=%d", in.name, opt.MaxBundleBytes, pert)
				on := &ledgerWire{Inproc: transport.NewInproc(len(in.shares)), shares: in.shares, arcs: map[[2]int64]*[2]int{}}
				results := runHooked(t, in.shares, opt, pert, nil, mpi.WithTransport(on))
				mates, err := Gather(in.shares, results)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(mates, gr) {
					t.Fatalf("%s: differs from the greedy matching", name)
				}
				var records int64
				for _, r := range results {
					records += r.Records
				}
				for a, n := range on.arcs {
					records -= int64(n[0] + n[1])
					if n[0] > 1 || n[1] > 1 {
						t.Errorf("%s: arc %d->%d carries %d REQUESTs and %d SUCCEEDED/FAILED, at most one each", name, a[0], a[1], n[0], n[1])
					}
					if a[0] > a[1] {
						continue // each edge once, from its smaller end
					}
					back := on.arcs[[2]int64{a[1], a[0]}]
					if back == nil {
						back = new([2]int)
					}
					if total := n[0] + n[1] + back[0] + back[1]; total > 3 {
						t.Errorf("%s: edge %d-%d carries %d records, at most three", name, a[0], a[1], total)
					}
					if n[0] > 0 && back[0] > 0 && mates[a[0]] != graph.Vertex(a[1]) {
						t.Errorf("%s: REQUESTs cross edge %d-%d both ways, but it is not matched", name, a[0], a[1])
					}
				}
				if records != 0 {
					t.Errorf("%s: the ranks count %d records more than the wire carried", name, records)
				}
			}
		}
	}
}

// flushWire checks every matching bundle put on it against the plain layout,
// every index written in full, which is what the bundler's cap counts: no
// proper prefix of a bundle reaches the flush point (plain bytes plus one
// more RecordBytes past the cap), so a bundle never ships later than a plain
// one would. It counts, per sending rank, the bundles that end at the flush
// point and those that do not, which only a Flush may end.
type flushWire struct {
	*transport.Inproc
	shares     []*dgraph.DistGraph
	cap        int
	mu         sync.Mutex
	full, part []int64
	records    []int64
	errs       []string
}

func (w *flushWire) Send(m transport.Msg) error {
	if m.Tag == matchTag {
		n := len(w.shares[m.To].PairWith(m.From).Edges)
		plain, k := 0, 0
		var late string
		rec := recordCodec.Walk(m.From, m.Tag, m.Payload, n)
		for ; rec.Next(); k++ {
			if plain > 0 && plain+RecordBytes > w.cap && late == "" {
				late = fmt.Sprintf("rank %d: a %d-byte bundle to rank %d goes on past the flush point at record %d", m.From, len(m.Payload), m.To, k)
			}
			plain += len(binary.AppendUvarint(nil, uint64(rec.Index)<<kindBits|uint64(rec.X)))
		}
		w.mu.Lock()
		w.records[m.From] += int64(k)
		if late != "" {
			w.errs = append(w.errs, late)
		}
		if plain+RecordBytes > w.cap {
			w.full[m.From]++
		} else {
			w.part[m.From]++
		}
		w.mu.Unlock()
	}
	return w.Inproc.Send(m)
}

// TestBundlesShipAtPlainFlushPoints holds the bundler to the plain layout's
// flush points on RMAT-14 at P = 2 and 4, at the default cap and at 1 KiB,
// where bundles fill mid-sweep. Records are coded as differences, but the
// cap counts them at their plain size, so every bundle ships at the record a
// bundle of plain records ships at: none goes on past that point, and those
// that end short of it number at most one per Flush — per destination, one
// per outer iteration and one at the finalize fence. Each rank's Records are
// the records on the wire, and its match-family messages are its Bundles
// plus one fence message per neighbour rank. (Which records a rank sends
// depends on arrival order, so the counts themselves are not a golden.)
func TestBundlesShipAtPlainFlushPoints(t *testing.T) {
	g, err := gen.RMAT(14, 8, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		part, err := partition.Multilevel(g, p, partition.MultilevelOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		shares, err := dgraph.Distribute(g, part)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxBytes := range []int{0, 1 << 10} {
			name := fmt.Sprintf("p=%d cap=%d", p, maxBytes)
			on := &flushWire{Inproc: transport.NewInproc(p), shares: shares, cap: cmp.Or(maxBytes, 64<<10),
				full: make([]int64, p), part: make([]int64, p), records: make([]int64, p)}
			w, err := mpi.NewWorld(p, mpi.WithTransport(on), mpi.WithDeadline(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			results := make([]*ParallelResult, p)
			if err := w.Run(func(c *mpi.Comm) error {
				r, err := Parallel(c, shares[c.Rank()], ParallelOptions{MaxBundleBytes: maxBytes})
				results[c.Rank()] = r
				return err
			}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, e := range on.errs {
				t.Errorf("%s: %s", name, e)
			}
			var full int64
			for rk, r := range results {
				full += on.full[rk]
				neighbors := int64(len(shares[rk].NeighborRanks))
				if on.records[rk] != r.Records {
					t.Errorf("%s rank %d: counts %d records, the wire carried %d", name, rk, r.Records, on.records[rk])
				}
				if sent := w.RankStats(rk).ByFamily[mpi.FamilyMatch].SentMsgs; sent != r.Bundles+neighbors {
					t.Errorf("%s rank %d: %d match messages, %d bundles and %d fence messages", name, rk, sent, r.Bundles, neighbors)
				}
				if flushes := (r.OuterIterations + 1) * neighbors; on.part[rk] > flushes {
					t.Errorf("%s rank %d: %d bundles end short of the flush point, %d Flushes can end at most %d", name, rk, on.part[rk], r.OuterIterations+1, flushes)
				}
			}
			if maxBytes != 0 && full == 0 {
				t.Errorf("%s: no bundle reached the cap", name)
			}
		}
	}
}

// TestLocalWeightIsDeterministic: a rank's LocalWeight is a float sum, so
// its last bits depend on the order of its terms. Under every perturbation
// seed, bundled and unbundled, each rank's LocalWeight is bit for bit the
// same, and equal to the sum this test recomputes: over the rank's owned
// vertices in local order, the weight of each matched edge whose other end
// has the larger global id, read off the share and MateGlobal. A kernel that
// summed as it decided would add in message-driven order.
func TestLocalWeightIsDeterministic(t *testing.T) {
	for _, in := range ledgerInputs(t) {
		var want []uint64
		for _, opt := range []ParallelOptions{{}, {MaxBundleBytes: RecordBytes}} {
			for pert := uint64(0); pert <= 6; pert++ {
				name := fmt.Sprintf("%s bundle=%d perturbation=%d", in.name, opt.MaxBundleBytes, pert)
				results := runHooked(t, in.shares, opt, pert, nil)
				got := make([]uint64, len(results))
				for rank, r := range results {
					got[rank] = math.Float64bits(r.LocalWeight)
					d := in.shares[rank]
					var sum float64
					for v, m := range r.MateGlobal {
						if m <= d.GlobalID[v] {
							continue
						}
						row := d.Xadj[v]
						k := slices.IndexFunc(d.Neighbors(int32(v)), func(u int32) bool { return d.GlobalOf(u) == m })
						if k < 0 {
							t.Fatalf("%s rank %d: vertex %d's mate %d is not its neighbor", name, rank, d.GlobalID[v], m)
						}
						sum += d.Weight(row + int64(k))
					}
					if got[rank] != math.Float64bits(sum) {
						t.Errorf("%s rank %d: LocalWeight %v, the sum in local order is %v", name, rank, r.LocalWeight, sum)
					}
				}
				if want == nil {
					want = got
				} else if !slices.Equal(got, want) {
					t.Errorf("%s: LocalWeight bits %x, the first run's %x", name, got, want)
				}
			}
		}
	}
}

// fenceWire is a transport that counts the matching traffic put on it: the
// bundles on matchTag, and the finalize fence's messages on the exchange's
// wire tag, the match family's other tag.
type fenceWire struct {
	transport.Transport
	mu                                  sync.Mutex
	bundles, bundleBytes, fence, fenceB int64
}

func (w *fenceWire) Send(m transport.Msg) error {
	w.mu.Lock()
	switch {
	case m.Tag == matchTag:
		w.bundles++
		w.bundleBytes += int64(len(m.Payload))
	case mpi.FamilyOf(m.Tag) == mpi.FamilyMatch:
		w.fence++
		w.fenceB += int64(len(m.Payload))
	}
	w.mu.Unlock()
	return w.Transport.Send(m)
}

// TestFinalizeFence: matching fences on its neighbour ranks alone. At every
// rank count, inproc and over tcp, the kernel meets in no collective (its
// runtime family is empty), each rank sends every neighbour rank one empty
// fence message, and the match family holds exactly the bundles and those:
// Σ|NeighborRanks| messages more than the bundles, and not a byte more.
func TestFinalizeFence(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 600, true, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		part, err := partition.Random(g, p, 7)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := dgraph.Distribute(g, part)
		if err != nil {
			t.Fatal(err)
		}
		var neighbours int64
		for _, d := range shares {
			neighbours += int64(len(d.NeighborRanks))
		}
		for _, backend := range []string{"inproc", "tcp"} {
			t.Run(fmt.Sprintf("P=%d/%s", p, backend), func(t *testing.T) {
				wires := []*fenceWire{{Transport: transport.NewInproc(p)}}
				if backend == "tcp" {
					eps, err := transport.NewLocalTCPCluster(p)
					if err != nil {
						t.Fatal(err)
					}
					wires = wires[:0]
					for _, ep := range eps {
						wires = append(wires, &fenceWire{Transport: ep})
					}
				}
				worlds := make([]*mpi.World, len(wires))
				for i, on := range wires {
					if worlds[i], err = mpi.NewWorld(p, mpi.WithTransport(on), mpi.WithDeadline(60*time.Second)); err != nil {
						t.Fatal(err)
					}
				}
				results := make([]*ParallelResult, p)
				errs := make([]error, len(worlds))
				var wg sync.WaitGroup
				for i, w := range worlds {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[i] = w.Run(func(c *mpi.Comm) (err error) {
							results[c.Rank()], err = Parallel(c, shares[c.Rank()], ParallelOptions{})
							return err
						})
					}()
				}
				wg.Wait()
				var on fenceWire
				var bundles int64
				var match, runtime mpi.FamilyStats
				for i, w := range worlds {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					for _, r := range w.LocalRanks() {
						bundles += results[r].Bundles
						match.Add(w.RankStats(r).ByFamily[mpi.FamilyMatch])
						runtime.Add(w.RankStats(r).ByFamily[mpi.FamilyRuntime])
					}
					on.bundles += wires[i].bundles
					on.bundleBytes += wires[i].bundleBytes
					on.fence += wires[i].fence
					on.fenceB += wires[i].fenceB
				}
				if runtime != (mpi.FamilyStats{}) {
					t.Errorf("the kernel met in a collective: runtime family %+v", runtime)
				}
				if on.bundles != bundles || on.fence != neighbours || on.fenceB != 0 {
					t.Errorf("wire: %d bundles and %d fence messages of %d bytes; ranks count %d bundles, %d neighbour ranks",
						on.bundles, on.fence, on.fenceB, bundles, neighbours)
				}
				if match.SentMsgs != bundles+neighbours || match.SentBytes != on.bundleBytes || match.RecvMsgs != match.SentMsgs {
					t.Errorf("match family %+v, want %d messages of %d bytes each way", match, bundles+neighbours, on.bundleBytes)
				}
			})
		}
	}
}
