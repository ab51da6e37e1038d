package matching

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// bruteForceMaxB computes the optimal b-matching weight by exhaustive search
// over tiny graphs.
func bruteForceMaxB(g *graph.Graph, b []int) float64 {
	edges := g.Edges()
	left := append([]int(nil), b...)
	var rec func(i int) float64
	rec = func(i int) float64 {
		if i == len(edges) {
			return 0
		}
		best := rec(i + 1)
		e := edges[i]
		if left[e.U] > 0 && left[e.V] > 0 {
			left[e.U]--
			left[e.V]--
			if w := e.W + rec(i+1); w > best {
				best = w
			}
			left[e.U]++
			left[e.V]++
		}
		return best
	}
	return rec(0)
}

func TestGreedyBReducesToMatchingAtB1(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 300, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := GreedyB(g, UniformB(g.NumVertices(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := bm.VerifyMaximal(g); err != nil {
		t.Fatal(err)
	}
	m1 := LocallyDominant(g)
	if bm.Weight(g) != m1.Weight(g) {
		t.Fatalf("b=1 greedy weight %g, matching weight %g", bm.Weight(g), m1.Weight(g))
	}
	for v := 0; v < g.NumVertices(); v++ {
		switch {
		case m1[v] == graph.None && len(bm.Partners[v]) != 0:
			t.Fatalf("vertex %d matched only in b-matching", v)
		case m1[v] != graph.None && (len(bm.Partners[v]) != 1 || bm.Partners[v][0] != m1[v]):
			t.Fatalf("vertex %d partners %v, want [%d]", v, bm.Partners[v], m1[v])
		}
	}
}

func TestGreedyBHalfApproximation(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		g, err := gen.ErdosRenyi(8, 20, true, seed)
		if err != nil {
			t.Fatal(err)
		}
		b := UniformB(g.NumVertices(), int(seed)%3+1)
		bm, err := GreedyB(g, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := bm.VerifyMaximal(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt := bruteForceMaxB(g, b)
		if got := bm.Weight(g); got < opt/2-1e-9 {
			t.Fatalf("seed %d: greedy %g below half of optimum %g", seed, got, opt)
		}
	}
}

func TestGreedyBRejectsBadInput(t *testing.T) {
	g, _ := gen.Grid2D(3, 3, true, 1)
	if _, err := GreedyB(g, []int{1}); err == nil {
		t.Error("accepted short capacity vector")
	}
	if _, err := GreedyB(g, UniformB(9, -1)); err == nil {
		t.Error("accepted negative capacity")
	}
}

func TestGreedyBZeroCapacity(t *testing.T) {
	g, _ := gen.Grid2D(4, 4, true, 2)
	bm, err := GreedyB(g, UniformB(16, 0))
	if err != nil {
		t.Fatal(err)
	}
	if bm.Size() != 0 || bm.Weight(g) != 0 {
		t.Fatal("zero capacities produced matches")
	}
	if err := bm.VerifyMaximal(g); err != nil {
		t.Fatal(err)
	}
}

// runBParallel distributes g, runs BParallel everywhere, gathers.
func runBParallel(t *testing.T, g *graph.Graph, part *partition.Partition, b []int, mpiOpts ...mpi.Option) (*BMatching, []*BParallelResult) {
	t.Helper()
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	localB := make([][]int, part.P)
	for rank, d := range shares {
		lb := make([]int, d.NLocal)
		for v := 0; v < d.NLocal; v++ {
			lb[v] = b[d.GlobalOf(int32(v))]
		}
		localB[rank] = lb
	}
	results := make([]*BParallelResult, part.P)
	var mu sync.Mutex
	mpiOpts = append(mpiOpts, mpi.WithDeadline(60*time.Second))
	err = mpi.Run(part.P, func(c *mpi.Comm) error {
		res, err := BParallel(c, shares[c.Rank()], localB[c.Rank()], ParallelOptions{})
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
	bm, err := GatherB(shares, results, localB)
	if err != nil {
		t.Fatal(err)
	}
	return bm, results
}

func TestBParallelMatchesGreedyOnGrid(t *testing.T) {
	g, err := gen.Grid2D(12, 12, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, bval := range []int{1, 2, 3} {
		b := UniformB(g.NumVertices(), bval)
		want, err := GreedyB(g, b)
		if err != nil {
			t.Fatal(err)
		}
		part, err := partition.Grid2D(12, 12, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runBParallel(t, g, part, b)
		if err := got.VerifyMaximal(g); err != nil {
			t.Fatalf("b=%d: %v", bval, err)
		}
		if got.Weight(g) != want.Weight(g) {
			t.Fatalf("b=%d: parallel weight %g, greedy %g", bval, got.Weight(g), want.Weight(g))
		}
	}
}

func TestBParallelIrregularAndPerturbed(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 600, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]int, g.NumVertices())
	rng := gen.NewRNG(5)
	for v := range b {
		b[v] = rng.Intn(4) // capacities 0..3
	}
	want, err := GreedyB(g, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3, 6} {
		part, err := partition.Random(g, p, uint64(p))
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(0); seed < 3; seed++ {
			var opts []mpi.Option
			if seed > 0 {
				opts = append(opts, mpi.WithPerturbation(seed))
			}
			got, _ := runBParallel(t, g, part, b, opts...)
			if err := got.VerifyMaximal(g); err != nil {
				t.Fatalf("p=%d seed=%d: %v", p, seed, err)
			}
			if got.Weight(g) != want.Weight(g) {
				t.Fatalf("p=%d seed=%d: weight %g, greedy %g", p, seed, got.Weight(g), want.Weight(g))
			}
		}
	}
}

func TestBParallelB1EqualsAsyncProtocol(t *testing.T) {
	// The round-based b-matching at b=1 must agree with the asynchronous
	// REQUEST/SUCCEEDED/FAILED protocol (both reproduce sequential greedy).
	g, err := gen.Circuit(15, 15, 0.45, true, 13)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.BFS(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := UniformB(g.NumVertices(), 1)
	bm, _ := runBParallel(t, g, part, b)
	seq := LocallyDominant(g)
	for v := 0; v < g.NumVertices(); v++ {
		if seq[v] == graph.None {
			if len(bm.Partners[v]) != 0 {
				t.Fatalf("vertex %d: b-matching matched, async not", v)
			}
			continue
		}
		if len(bm.Partners[v]) != 1 || bm.Partners[v][0] != seq[v] {
			t.Fatalf("vertex %d: partners %v, want [%d]", v, bm.Partners[v], seq[v])
		}
	}
}

func TestBParallelRoundsBounded(t *testing.T) {
	g, err := gen.RMAT(8, 6, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, results := runBParallel(t, g, part, UniformB(g.NumVertices(), 2))
	if results[0].Rounds > 40 {
		t.Fatalf("b-matching took %d rounds", results[0].Rounds)
	}
}

func TestBParallelRejectsBadInput(t *testing.T) {
	g, _ := gen.Grid2D(4, 4, true, 1)
	part, _ := partition.Block1D(g, 2)
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := BParallel(c, shares[c.Rank()], []int{1}, ParallelOptions{}); err == nil {
			return nil // should have errored
		}
		return nil
	}, mpi.WithDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// Property: distributed b-matching equals sequential greedy b-matching for
// random graphs, capacities, and partitions.
func TestQuickBParallelEqualsGreedy(t *testing.T) {
	if testing.Short() {
		t.Skip("many distributed runs")
	}
	f := func(nRaw, mRaw, pRaw, bRaw uint8, seed uint64) bool {
		n := int(nRaw)%30 + 2
		p := int(pRaw)%4 + 1
		g, err := gen.ErdosRenyi(n, int64(mRaw), true, seed)
		if err != nil {
			return false
		}
		b := make([]int, n)
		rng := gen.NewRNG(seed ^ 0xb)
		for v := range b {
			b[v] = rng.Intn(int(bRaw)%3 + 2)
		}
		want, err := GreedyB(g, b)
		if err != nil {
			return false
		}
		part, err := partition.Random(g, p, seed)
		if err != nil {
			return false
		}
		shares, err := dgraph.Distribute(g, part)
		if err != nil {
			return false
		}
		localB := make([][]int, p)
		for rank, d := range shares {
			lb := make([]int, d.NLocal)
			for v := 0; v < d.NLocal; v++ {
				lb[v] = b[d.GlobalOf(int32(v))]
			}
			localB[rank] = lb
		}
		results := make([]*BParallelResult, p)
		var mu sync.Mutex
		err = mpi.Run(p, func(c *mpi.Comm) error {
			res, err := BParallel(c, shares[c.Rank()], localB[c.Rank()], ParallelOptions{})
			if err != nil {
				return err
			}
			mu.Lock()
			results[c.Rank()] = res
			mu.Unlock()
			return nil
		}, mpi.WithDeadline(30*time.Second))
		if err != nil {
			return false
		}
		got, err := GatherB(shares, results, localB)
		if err != nil {
			return false
		}
		return got.Verify(g) == nil && got.Weight(g) == want.Weight(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
