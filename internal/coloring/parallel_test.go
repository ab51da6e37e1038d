package coloring

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// runParallel distributes g over part, runs the speculative coloring on all
// ranks, and returns the assembled global coloring plus per-rank results.
func runParallel(t *testing.T, g *graph.Graph, part *partition.Partition, opt ParallelOptions, mpiOpts ...mpi.Option) (Colors, []*ParallelResult) {
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
	colors, err := Gather(shares, results)
	if err != nil {
		t.Fatal(err)
	}
	return colors, results
}

func TestParallelProperOnGrid(t *testing.T) {
	g, err := gen.Grid2D(20, 20, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4, 9} {
		pr, pc := partition.ProcessorGrid(p)
		part, err := partition.Grid2D(20, 20, pr, pc)
		if err != nil {
			t.Fatal(err)
		}
		colors, results := runParallel(t, g, part, ParallelOptions{Seed: 5})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if colors.NumColors() > g.MaxDegree()+1 {
			t.Fatalf("p=%d: %d colors exceeds Δ+1", p, colors.NumColors())
		}
		// All ranks must agree on round count and color count.
		for _, r := range results {
			if r.Rounds != results[0].Rounds || r.NumColors != results[0].NumColors {
				t.Fatalf("p=%d: ranks disagree on rounds/colors", p)
			}
		}
		if results[0].NumColors != colors.NumColors() {
			t.Fatalf("p=%d: reported %d colors, gathered %d", p, results[0].NumColors, colors.NumColors())
		}
	}
}

func TestParallelNumColorsNearSequential(t *testing.T) {
	// Section 5.2: the parallel color count "in general remained nearly the
	// same as the number used by the underlying serial algorithm".
	g, err := gen.Circuit(40, 40, 0.45, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	seq := GreedyOrder(g, naturalOrder(g))
	part, err := partition.Multilevel(g, 8, partition.MultilevelOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 7})
	if err := colors.Verify(g); err != nil {
		t.Fatal(err)
	}
	if colors.NumColors() > seq.NumColors()+2 {
		t.Fatalf("parallel used %d colors, sequential %d", colors.NumColors(), seq.NumColors())
	}
}

func naturalOrder(g *graph.Graph) []graph.Vertex {
	ord := make([]graph.Vertex, g.NumVertices())
	for i := range ord {
		ord[i] = graph.Vertex(i)
	}
	return ord
}

func TestParallelAllCommModes(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 1000, false, 9)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.BFS(g, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []CommMode{CommNeighbors, CommCustomizedAll, CommBroadcast} {
		colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 11, CommMode: mode})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestParallelCommModeTrafficOrdering(t *testing.T) {
	// The paper's Section 4.2 hierarchy: NEW sends fewer messages than FIAC,
	// which sends the same number as FIAB but less volume.
	g, err := gen.Grid2D(40, 40, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Grid2D(40, 40, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	traffic := map[CommMode]mpi.Stats{}
	for _, mode := range []CommMode{CommNeighbors, CommCustomizedAll, CommBroadcast} {
		w, err := mpi.NewWorld(part.P, mpi.WithDeadline(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *mpi.Comm) error {
			_, err := Parallel(c, shares[c.Rank()], ParallelOptions{Seed: 3, CommMode: mode, SuperstepSize: 100})
			return err
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		traffic[mode] = w.TotalStats()
	}
	neu, fiac, fiab := traffic[CommNeighbors], traffic[CommCustomizedAll], traffic[CommBroadcast]
	if neu.SentMsgs >= fiac.SentMsgs {
		t.Errorf("NEW sent %d msgs, FIAC %d — expected fewer", neu.SentMsgs, fiac.SentMsgs)
	}
	if fiab.SentBytes <= fiac.SentBytes {
		t.Errorf("FIAB sent %d bytes, FIAC %d — expected broadcast volume to dominate", fiab.SentBytes, fiac.SentBytes)
	}
	if neu.SentBytes > fiab.SentBytes {
		t.Errorf("NEW volume %d exceeds FIAB %d", neu.SentBytes, fiab.SentBytes)
	}
}

func TestParallelAllStrategies(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 800, false, 13)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{FirstFit, StaggeredFirstFit, LeastUsed} {
		colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 17, Strategy: st})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("strategy %v: %v", st, err)
		}
	}
}

func TestParallelAllOrders(t *testing.T) {
	g, err := gen.Circuit(25, 25, 0.45, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.BFS(g, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []VertexOrder{BoundaryFirst, InteriorFirst, Interleaved} {
		colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 19, Order: o})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("order %v: %v", o, err)
		}
	}
}

func TestParallelConflictPolicies(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 900, false, 23)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range []ConflictPolicy{ConflictRandom, ConflictMinID} {
		colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 29, Conflict: cp, SuperstepSize: 25})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("policy %v: %v", cp, err)
		}
	}
}

func TestParallelSuperstepSizes(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 700, false, 31)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{1, 7, 100, 100000} {
		colors, results := runParallel(t, g, part, ParallelOptions{Seed: 37, SuperstepSize: s})
		if err := colors.Verify(g); err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
		// Smaller supersteps mean fresher information and at least as few
		// conflicts in expectation; just sanity-check convergence speed.
		if results[0].Rounds > 20 {
			t.Fatalf("s=%d: %d rounds", s, results[0].Rounds)
		}
	}
	// Negative superstep size must be rejected.
	whole, err := dgraph.Distribute(g, &partition.Partition{P: 1, Part: make([]int32, g.NumVertices())})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := Parallel(c, whole[0], ParallelOptions{SuperstepSize: -1}); err == nil {
			t.Error("accepted negative superstep size")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestParallelUnderPerturbation(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 700, false, 41)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		colors, _ := runParallel(t, g, part, ParallelOptions{Seed: 43, SuperstepSize: 10},
			mpi.WithPerturbation(seed))
		if err := colors.Verify(g); err != nil {
			t.Fatalf("perturbation %d: %v", seed, err)
		}
	}
}

func TestParallelSingleRank(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 300, false, 47)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := partition.Block1D(g, 1)
	colors, results := runParallel(t, g, part, ParallelOptions{Seed: 1})
	if err := colors.Verify(g); err != nil {
		t.Fatal(err)
	}
	if results[0].Rounds != 1 || results[0].Conflicts != 0 {
		t.Fatalf("single rank: rounds=%d conflicts=%d, want 1, 0", results[0].Rounds, results[0].Conflicts)
	}
}

func TestParallelConvergesInFewRounds(t *testing.T) {
	// The framework papers report convergence within ~6 rounds; allow slack
	// but catch pathological ping-ponging.
	g, err := gen.Circuit(40, 40, 0.45, false, 6)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 8, 4) // poor partition: many conflicts
	if err != nil {
		t.Fatal(err)
	}
	_, results := runParallel(t, g, part, ParallelOptions{Seed: 53, SuperstepSize: 1000})
	if results[0].Rounds > 10 {
		t.Fatalf("converged in %d rounds, expected <= 10", results[0].Rounds)
	}
}

func TestJonesPlassmannProper(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 1000, false, 59)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.BFS(g, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ParallelResult, part.P)
	var mu sync.Mutex
	err = mpi.Run(part.P, func(c *mpi.Comm) error {
		res, err := JonesPlassmann(c, shares[c.Rank()], 61, 0)
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	}, mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	colors, err := Gather(shares, results)
	if err != nil {
		t.Fatal(err)
	}
	if err := colors.Verify(g); err != nil {
		t.Fatal(err)
	}
	if colors.NumColors() > g.MaxDegree()+1 {
		t.Fatalf("JP used %d colors, exceeds Δ+1 = %d", colors.NumColors(), g.MaxDegree()+1)
	}
}

func TestFrameworkNeedsFewerRoundsThanJP(t *testing.T) {
	// The framework paper's key claim: speculation needs provably no more
	// rounds than MIS-based coloring, and typically far fewer.
	g, err := gen.Grid2D(30, 30, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Grid2D(30, 30, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	var specRounds, jpRounds int
	var mu sync.Mutex
	err = mpi.Run(part.P, func(c *mpi.Comm) error {
		spec, err := Parallel(c, shares[c.Rank()], ParallelOptions{Seed: 67})
		if err != nil {
			return err
		}
		jp, err := JonesPlassmann(c, shares[c.Rank()], 67, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			specRounds, jpRounds = spec.Rounds, jp.Rounds
			mu.Unlock()
		}
		return nil
	}, mpi.WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if specRounds > jpRounds {
		t.Fatalf("speculative framework took %d rounds, JP %d", specRounds, jpRounds)
	}
}

func TestGatherRejectsInconsistentResults(t *testing.T) {
	g, _ := gen.Grid2D(4, 4, false, 0)
	part, _ := partition.Block1D(g, 2)
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Gather(shares, []*ParallelResult{nil, nil}); err == nil {
		t.Error("accepted nil results")
	}
	short := []*ParallelResult{
		{Colors: make([]int32, shares[0].NLocal)},
		{Colors: make([]int32, 1)},
	}
	if _, err := Gather(shares, short); err == nil {
		t.Error("accepted short result")
	}
	if _, err := Gather(nil, nil); err == nil {
		t.Error("accepted empty gather")
	}
}
