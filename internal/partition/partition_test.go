package partition

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func mustGrid(t *testing.T, k1, k2 int) *graph.Graph {
	t.Helper()
	g, err := gen.Grid2D(k1, k2, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBlock1D(t *testing.T) {
	g := mustGrid(t, 10, 10)
	p, err := Block1D(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	m := Measure(g, p)
	if m.MaxPartSize != 25 || m.MinPartSize != 25 {
		t.Fatalf("block sizes [%d..%d], want 25", m.MinPartSize, m.MaxPartSize)
	}
	// Boundaries fall at ids 25, 50, 75. The seams at 25 and 75 split a row
	// mid-way (10 vertical + 1 horizontal cut edges each); the seam at 50
	// aligns with a row boundary (10 vertical). Total 32.
	if m.EdgeCut != 32 {
		t.Fatalf("edge cut = %d, want 32", m.EdgeCut)
	}
}

func TestRandomPartitionCoversParts(t *testing.T) {
	g := mustGrid(t, 20, 20)
	p, err := Random(g, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	m := Measure(g, p)
	if m.MinPartSize == 0 {
		t.Error("random partition left a part empty (unlikely at n=400, p=8)")
	}
	// Random placement cuts most edges.
	if m.CutFraction < 0.5 {
		t.Errorf("random cut fraction %.2f, expected > 0.5", m.CutFraction)
	}
}

func TestGrid2DPartitionPaperExample(t *testing.T) {
	// Shrunken version of the paper's example: 80x80 grid on a 4x4 processor
	// grid gives every processor a 20x20 subgrid.
	k := 80
	pr, pc := 4, 4
	g := mustGrid(t, k, k)
	p, err := Grid2D(k, k, pr, pc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	m := Measure(g, p)
	if m.MaxPartSize != 400 || m.MinPartSize != 400 {
		t.Fatalf("subgrid sizes [%d..%d], want 400", m.MinPartSize, m.MaxPartSize)
	}
	// Cut = 3 horizontal seams * 80 + 3 vertical seams * 80 = 480.
	if m.EdgeCut != 480 {
		t.Fatalf("edge cut = %d, want 480", m.EdgeCut)
	}
	// Boundary vertices: each 20x20 block has its perimeter facing a seam;
	// interior fraction should dominate.
	if m.BoundaryFrac > 0.25 {
		t.Errorf("boundary fraction %.2f too high for 2D blocks", m.BoundaryFrac)
	}
}

func TestGrid2DPartitionRejectsBadShapes(t *testing.T) {
	if _, err := Grid2D(4, 4, 5, 1); err == nil {
		t.Error("accepted pr > k1")
	}
	if _, err := Grid2D(0, 4, 1, 1); err == nil {
		t.Error("accepted zero grid")
	}
}

func TestProcessorGrid(t *testing.T) {
	for _, tc := range []struct{ p, pr, pc int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4}, {12, 3, 4}, {16, 4, 4}, {7, 1, 7}, {36, 6, 6},
	} {
		pr, pc := ProcessorGrid(tc.p)
		if pr*pc != tc.p {
			t.Errorf("ProcessorGrid(%d) = %dx%d does not multiply back", tc.p, pr, pc)
		}
		if pr != tc.pr || pc != tc.pc {
			t.Errorf("ProcessorGrid(%d) = %dx%d, want %dx%d", tc.p, pr, pc, tc.pr, tc.pc)
		}
	}
}

func TestBFSPartition(t *testing.T) {
	g := mustGrid(t, 30, 30)
	p, err := BFS(g, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	m := Measure(g, p)
	if m.Imbalance > 0.02 {
		t.Errorf("BFS imbalance %.3f, want near 0 (cap is ceil(n/p))", m.Imbalance)
	}
	// Region growing on a grid should beat random by a wide margin.
	r, _ := Random(g, 9, 5)
	rm := Measure(g, r)
	if m.EdgeCut >= rm.EdgeCut {
		t.Errorf("BFS cut %d not better than random cut %d", m.EdgeCut, rm.EdgeCut)
	}
}

func TestMultilevelQualityOnGrid(t *testing.T) {
	g := mustGrid(t, 40, 40)
	p, err := Multilevel(g, 8, MultilevelOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	m := Measure(g, p)
	if m.Imbalance > 0.35 {
		t.Errorf("multilevel imbalance %.2f too high", m.Imbalance)
	}
	// A good 8-way cut of a 40x40 grid is a few hundred edges at most; random
	// would cut ~87%. Accept anything clearly in the structured regime.
	if m.CutFraction > 0.2 {
		t.Errorf("multilevel cut fraction %.2f, expected well under random", m.CutFraction)
	}
	if m.MinPartSize == 0 {
		t.Error("multilevel left an empty part")
	}
}

func TestMultilevelNoRefineIsWorse(t *testing.T) {
	g := mustGrid(t, 40, 40)
	refined, err := Multilevel(g, 8, MultilevelOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rough, err := Multilevel(g, 8, MultilevelOptions{Seed: 7, NoRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	mr := Measure(g, refined)
	mu := Measure(g, rough)
	if mu.EdgeCut < mr.EdgeCut {
		t.Errorf("unrefined cut %d beats refined cut %d", mu.EdgeCut, mr.EdgeCut)
	}
}

func TestMultilevelSmallAndEdgeCases(t *testing.T) {
	g := mustGrid(t, 3, 3)
	p, err := Multilevel(g, 3, MultilevelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if _, err := Multilevel(g, 0, MultilevelOptions{}); err == nil {
		t.Error("accepted p=0")
	}
	if _, err := Multilevel(g, 100, MultilevelOptions{}); err == nil {
		t.Error("accepted p > n")
	}
	empty, _ := graph.BuildUndirected(0, nil, graph.DedupeFirst)
	if _, err := Multilevel(empty, 2, MultilevelOptions{}); err != nil {
		t.Errorf("empty graph: %v", err)
	}
}

func TestMultilevelP1(t *testing.T) {
	g := mustGrid(t, 10, 10)
	p, err := Multilevel(g, 1, MultilevelOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(g, p)
	if m.EdgeCut != 0 || m.BoundaryVtx != 0 {
		t.Fatalf("p=1 has cut %d boundary %d", m.EdgeCut, m.BoundaryVtx)
	}
}

func TestMultilevelOnDisconnectedGraph(t *testing.T) {
	// Two disjoint grids.
	a, _ := gen.Grid2D(8, 8, true, 1)
	edges := a.Edges()
	off := graph.Vertex(a.NumVertices())
	for _, e := range a.Edges() {
		edges = append(edges, graph.Edge{U: e.U + off, V: e.V + off, W: e.W})
	}
	g, err := graph.BuildUndirected(2*int(off), edges, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Multilevel(g, 4, MultilevelOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if m := Measure(g, p); m.MinPartSize == 0 {
		t.Error("empty part on disconnected graph")
	}
}

func TestMeasureOnKnownPartition(t *testing.T) {
	// Path 0-1-2-3, split {0,1} {2,3}: cut 1, boundary 2.
	g, err := graph.BuildUndirected(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	p := &Partition{P: 2, Part: []int32{0, 0, 1, 1}}
	m := Measure(g, p)
	if m.EdgeCut != 1 || m.BoundaryVtx != 2 || m.MaxPartSize != 2 || m.MinPartSize != 2 {
		t.Fatalf("metrics %+v", m)
	}
	if m.String() == "" {
		t.Error("empty Metrics.String")
	}
}

func TestPartVertices(t *testing.T) {
	p := &Partition{P: 3, Part: []int32{2, 0, 2, 1}}
	groups := PartVertices(p)
	if len(groups) != 3 || len(groups[0]) != 1 || len(groups[1]) != 1 || len(groups[2]) != 2 {
		t.Fatalf("groups %v", groups)
	}
	if groups[2][0] != 0 || groups[2][1] != 2 {
		t.Fatalf("group 2 = %v", groups[2])
	}
}

func TestValidateCatchesBadPartitions(t *testing.T) {
	g := mustGrid(t, 2, 2)
	bad := &Partition{P: 2, Part: []int32{0, 1, 2, 0}}
	if err := bad.Validate(g); err == nil {
		t.Error("accepted out-of-range part")
	}
	short := &Partition{P: 2, Part: []int32{0, 1}}
	if err := short.Validate(g); err == nil {
		t.Error("accepted short partition")
	}
}

// Property: every partitioner covers all vertices with in-range parts on
// arbitrary graphs.
func TestQuickPartitionersValid(t *testing.T) {
	f := func(nRaw, mRaw uint8, pRaw uint8, seed uint64) bool {
		n := int(nRaw)%60 + 4
		m := int64(mRaw) * 2
		p := int(pRaw)%4 + 1
		g, err := gen.ErdosRenyi(n, m, true, seed)
		if err != nil {
			return false
		}
		for _, mk := range []func() (*Partition, error){
			func() (*Partition, error) { return Block1D(g, p) },
			func() (*Partition, error) { return Random(g, p, seed) },
			func() (*Partition, error) { return BFS(g, p, seed) },
			func() (*Partition, error) { return Multilevel(g, p, MultilevelOptions{Seed: seed}) },
		} {
			part, err := mk()
			if err != nil || part.Validate(g) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestByNameRunsTheNamedPartitioner: each name resolves to the partitioner it
// names, with the seed threaded through — the same call the CLIs and the
// daemon make.
func TestByNameRunsTheNamedPartitioner(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 240, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	const p, seed = 4, 9
	direct := map[string]func() (*Partition, error){
		"multilevel": func() (*Partition, error) { return Multilevel(g, p, MultilevelOptions{Seed: seed}) },
		"bfs":        func() (*Partition, error) { return BFS(g, p, seed) },
		"block":      func() (*Partition, error) { return Block1D(g, p) },
		"random":     func() (*Partition, error) { return Random(g, p, seed) },
	}
	for name, mk := range direct {
		build, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := build(g, p, MultilevelOptions{Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) did not run %s", name, name)
		}
		// Seeded is what a partition cache keys on: a seedless partitioner
		// must return the same parts for another seed, a seeded one moves.
		other, err := build(g, p, MultilevelOptions{Seed: seed + 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if moved := !reflect.DeepEqual(got, other); moved != Seeded(name) {
			t.Errorf("Seeded(%q) = %v, but another seed moved the parts: %v", name, Seeded(name), moved)
		}
	}
	if !Seeded("hash") {
		t.Error("an unknown partitioner is reported seedless")
	}
	if _, err := ByName("hash"); err == nil {
		t.Fatal("ByName accepted an unknown partitioner")
	}
}
