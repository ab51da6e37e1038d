package matching

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
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
	seq := LocallyDominant(g)
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
			if mates[v] != seq[v] {
				t.Fatalf("p=%d: vertex %d mate %d, sequential %d", p, v, mates[v], seq[v])
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
	want := LocallyDominant(g).Weight(g)
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
	seq := LocallyDominant(g)
	mates, _ := runParallel(t, g, part, ParallelOptions{})
	if err := mates.VerifyMaximal(g); err != nil {
		t.Fatal(err)
	}
	if mates.Weight(g) != seq.Weight(g) {
		t.Fatalf("weight %g, sequential %g", mates.Weight(g), seq.Weight(g))
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
	want := LocallyDominant(g).Weight(g)
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
	seq := LocallyDominant(g)
	part, err := partition.Grid2D(12, 12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	mates, _ := runParallel(t, g, part, ParallelOptions{})
	for v := range mates {
		if mates[v] != seq[v] {
			t.Fatalf("vertex %d mate %d, sequential %d", v, mates[v], seq[v])
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
	seq := LocallyDominant(g)
	for v := range mates {
		if mates[v] != seq[v] {
			t.Fatalf("vertex %d mate %d, sequential %d", v, mates[v], seq[v])
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

func TestParallelMessageBoundPerCrossEdge(t *testing.T) {
	// Section 3.2: at least two and at most three messages cross any edge.
	g, err := gen.ErdosRenyi(80, 400, true, 17)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := partition.Measure(g, part)
	_, results := runParallel(t, g, part, ParallelOptions{})
	var recs int64
	for _, r := range results {
		recs += r.Records
	}
	if recs < 2*m.EdgeCut-int64(g.NumVertices()) {
		// Lower bound is loose: fully-failed vertices may send fewer.
		t.Logf("records %d below nominal 2*cut %d (acceptable: failures)", recs, 2*m.EdgeCut)
	}
	if recs > 3*m.EdgeCut {
		t.Fatalf("records %d exceed 3 per cross edge (cut %d)", recs, m.EdgeCut)
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
		seq := LocallyDominant(g)
		mates, _ := runParallel(t, g, part, ParallelOptions{})
		if err := mates.VerifyMaximal(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if mates.Weight(g) != seq.Weight(g) {
			t.Fatalf("seed %d (n=%d p=%d): weight %g, sequential %g",
				seed, n, p, mates.Weight(g), seq.Weight(g))
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

// TestDrainWalksWhatTheRowWalkFinds: drainQueue finds the free owned
// vertices whose candidate just retired on the retired vertex's by list, not
// by walking its row. At every step of every drain — small random graphs,
// weighted and all-ties, over 1 to 4 ranks, bundled and unbundled, plain and
// under perturbation — the list walk through the guard finds exactly the
// vertices the row walk finds, and the matching is the sequential one.
func TestDrainWalksWhatTheRowWalkFinds(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		n := 20 + int(seed)*7
		g, err := gen.ErdosRenyi(n, int64(n)*3, seed%3 != 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		seq := LocallyDominant(g)
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
					mpiOpts := []mpi.Option{mpi.WithDeadline(30 * time.Second)}
					if pert > 0 {
						mpiOpts = append(mpiOpts, mpi.WithPerturbation(pert))
					}
					results := make([]*ParallelResult, p)
					steps := make([]int, p)
					err := mpi.Run(p, func(c *mpi.Comm) error {
						r, err := newRank(c, shares[c.Rank()], opt)
						if err != nil {
							return err
						}
						s := &matchState{rank: r}
						s.onDrain = func(v int32) {
							steps[c.Rank()]++
							var list, row []int32
							for w := s.by[v]; w != noCM; w = s.next[w] {
								if s.cm[w] == v && !s.gone[w] {
									list = append(list, w)
								}
							}
							for _, w := range s.d.Neighbors(v) {
								if !s.d.IsGhost(w) && s.cm[w] == v && !s.gone[w] {
									row = append(row, w)
								}
							}
							slices.Sort(list) // as sets: a row ascends in global id, not in local index
							slices.Sort(row)
							if !slices.Equal(list, row) {
								t.Errorf("%s rank %d: drain of %d walks %v, the row walk finds %v", name, c.Rank(), v, list, row)
							}
						}
						if err := s.run(); err != nil {
							return err
						}
						results[c.Rank()] = s.result()
						return nil
					}, mpiOpts...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					mates, err := Gather(shares, results)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Equal(mates, seq) {
						t.Fatalf("%s: differs from the sequential locally-dominant matching", name)
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
