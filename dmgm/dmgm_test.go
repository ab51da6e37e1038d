package dmgm

import (
	"strings"
	"testing"

	"repro/internal/mpi"
)

func TestEndToEndMatching(t *testing.T) {
	g, err := Grid2D(16, 16, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := Match(g)
	if err := VerifyMatching(g, seq); err != nil {
		t.Fatal(err)
	}
	part, err := PartitionGrid2D(16, 16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MatchParallel(g, part, MatchParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMatching(g, res.Mates); err != nil {
		t.Fatal(err)
	}
	// The matchings are identical edge sets; the per-rank weight sum may
	// differ from the sequential sum in the last ulp (summation order).
	for v := range seq {
		if res.Mates[v] != seq[v] {
			t.Fatalf("vertex %d: parallel mate %d, sequential %d", v, res.Mates[v], seq[v])
		}
	}
	if got, want := res.Weight, seq.Weight(g); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("parallel weight %g, sequential %g", got, want)
	}
	if res.Messages == 0 {
		t.Error("no messages recorded for a 4-rank run")
	}
}

func TestEndToEndColoring(t *testing.T) {
	g, err := Circuit(30, 30, 0.45, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Color(g, OrderSmallestLast, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoring(g, seq); err != nil {
		t.Fatal(err)
	}
	part, err := PartitionMultilevel(g, 4, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ColorParallel(g, part, ColorParallelOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoring(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	lo, hi := ColoringBounds(g)
	if res.NumColors < lo || res.NumColors > hi {
		t.Fatalf("parallel colors %d outside bounds [%d,%d]", res.NumColors, lo, hi)
	}
	if res.Rounds < 1 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestExactBipartiteFacade(t *testing.T) {
	b, err := RandomBipartite(20, 20, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := MatchExactBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	approx := Match(b.Graph)
	if approx.Weight(b.Graph) > exact.Weight(b.Graph)+1e-9 {
		t.Fatal("approximation exceeds optimum")
	}
	if MatchGreedy(b.Graph).Weight(b.Graph) != approx.Weight(b.Graph) {
		t.Fatal("greedy and locally-dominant weights differ")
	}
}

func TestFacadeRejectsBadPartition(t *testing.T) {
	g, err := Grid2D(4, 4, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := &Partition{P: 2, Part: []int32{0}}
	if _, err := MatchParallel(g, bad, MatchParallelOptions{}); err == nil {
		t.Error("MatchParallel accepted bad partition")
	}
	if _, err := ColorParallel(g, bad, ColorParallelOptions{}); err == nil {
		t.Error("ColorParallel accepted bad partition")
	}
}

func TestMismatchedWorldRefusedBeforeDistribute(t *testing.T) {
	g, err := Grid2D(4, 4, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	good, err := PartitionBlock1D(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The second partition is also invalid for g, which only distributing
	// would find out: the world-size refusal must come first.
	for name, part := range map[string]*Partition{"valid": good, "invalid": {P: 2, Part: []int32{0}}} {
		_, err := MatchParallelWorld(w, g, part, MatchParallelOptions{})
		if err == nil || !strings.Contains(err.Error(), "world of 3 ranks for a 2-way partition") {
			t.Errorf("%s partition on a mismatched world: %v", name, err)
		}
	}
}

func TestBanner(t *testing.T) {
	if !strings.Contains(String(), Version) {
		t.Fatal("banner missing version")
	}
}

func TestDistance2Facade(t *testing.T) {
	g, err := Circuit(16, 16, 0.45, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ColorDistance2(g, OrderNatural, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoringDistance2(g, seq); err != nil {
		t.Fatal(err)
	}
	part, err := PartitionBFS(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ColorParallelDistance2(g, part, ColorParallelOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyColoringDistance2(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	// Distance-2 needs at least as many colors as distance-1.
	d1, err := Color(g, OrderNatural, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumColors < d1.NumColors() {
		t.Fatalf("distance-2 used %d colors, distance-1 %d", res.NumColors, d1.NumColors())
	}
}

// TestRunJobRefusesForeignPlacement: a placement is only good for the graph
// it was cut from, and RunJob says so before anything runs — a cache handing
// out placements by key must not be able to pair one with another graph.
func TestRunJobRefusesForeignPlacement(t *testing.T) {
	g, err := Grid2D(6, 6, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	job := Job{Algorithm: AlgoMatch}
	for name, other := range map[string]func() (*Graph, error){
		"another size":            func() (*Graph, error) { return Grid2D(6, 7, true, 1) },
		"same size, another edge": func() (*Graph, error) { return ErdosRenyi(36, 59, true, 1) },
	} {
		og, err := other()
		if err != nil {
			t.Fatal(err)
		}
		part, err := PartitionBlock1D(og, 2)
		if err != nil {
			t.Fatal(err)
		}
		foreign, err := Place(og, part)
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunJob(w, g, foreign, job); err == nil || !strings.Contains(err.Error(), "placement of a graph with") {
			t.Errorf("%s: RunJob on a placement cut from another graph: %v", name, err)
		}
		// The world was not touched: the same one still runs the right pair.
		if res, err := RunJob(w, og, foreign, job); err != nil || res.Text == "" {
			t.Errorf("%s: RunJob on the placement's own graph after the refusal: %v", name, err)
		}
	}
}
