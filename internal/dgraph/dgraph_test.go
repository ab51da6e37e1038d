package dgraph

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func TestDistributeCoversGraph(t *testing.T) {
	g, err := gen.ErdosRenyi(80, 300, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.BFS(g, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	totalLocal := 0
	var totalCross int64
	for rank, d := range shares {
		if err := d.Validate(); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if d.Rank != rank || d.P != 5 {
			t.Fatalf("rank %d misidentified as %d/%d", rank, d.Rank, d.P)
		}
		totalLocal += d.NLocal
		totalCross += d.CrossArcs
		if d.GlobalN != int64(g.NumVertices()) || d.GlobalEdges != g.NumEdges() {
			t.Fatalf("rank %d global sizes wrong", rank)
		}
	}
	if totalLocal != g.NumVertices() {
		t.Fatalf("ranks own %d vertices, want %d", totalLocal, g.NumVertices())
	}
	// Each cross edge contributes one cross arc on each side.
	m := partition.Measure(g, part)
	if totalCross != 2*m.EdgeCut {
		t.Fatalf("total cross arcs %d, want %d", totalCross, 2*m.EdgeCut)
	}
}

func TestDistributePreservesAdjacency(t *testing.T) {
	g, err := gen.Grid2D(6, 7, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Block1D(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	// Every global edge must appear exactly once per owned endpoint, with the
	// original weight.
	for _, d := range shares {
		for v := 0; v < d.NLocal; v++ {
			gv := graph.Vertex(d.GlobalOf(int32(v)))
			adj := d.Neighbors(int32(v))
			if len(adj) != g.Degree(gv) {
				t.Fatalf("rank %d vertex %d degree %d, want %d", d.Rank, gv, len(adj), g.Degree(gv))
			}
			for k, u := range adj {
				gu := graph.Vertex(d.GlobalOf(u))
				w, ok := g.EdgeWeight(gv, gu)
				if !ok {
					t.Fatalf("phantom edge {%d,%d} on rank %d", gv, gu, d.Rank)
				}
				if got := d.Weight(d.Xadj[v] + int64(k)); got != w {
					t.Fatalf("edge {%d,%d} weight %g, want %g", gv, gu, got, w)
				}
			}
		}
	}
}

func TestDistributeGhostOwners(t *testing.T) {
	g, _ := gen.Grid2D(8, 8, false, 0)
	part, _ := partition.Grid2D(8, 8, 2, 2)
	shares, err := Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range shares {
		for gi := 0; gi < d.NGhost; gi++ {
			l := int32(d.NLocal + gi)
			gid := d.GlobalOf(l)
			if want := part.Part[gid]; d.GhostOwner[gi] != want {
				t.Fatalf("rank %d ghost %d owner %d, want %d", d.Rank, gid, d.GhostOwner[gi], want)
			}
			if d.OwnerOf(l) != int(part.Part[gid]) {
				t.Fatal("OwnerOf disagrees with GhostOwner")
			}
		}
		if d.OwnerOf(0) != d.Rank {
			t.Fatal("OwnerOf(owned) != own rank")
		}
	}
}

func TestBuildGridMatchesDistribute(t *testing.T) {
	// The direct distributed builder must agree exactly with distributing the
	// globally generated grid.
	const k1, k2, pr, pc = 9, 11, 3, 2
	spec := GridSpec{K1: k1, K2: k2, PR: pr, PC: pc, Weighted: true, Seed: 42}
	g, err := gen.Grid2D(k1, k2, true, 42)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Grid2D(k1, k2, pr, pc)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < spec.P(); rank++ {
		d, err := BuildGrid(spec, rank)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		r := ref[rank]
		if d.NLocal != r.NLocal || d.NGhost != r.NGhost || d.CrossArcs != r.CrossArcs ||
			d.NumBoundary != r.NumBoundary {
			t.Fatalf("rank %d: direct(NLocal=%d NGhost=%d cross=%d bnd=%d) vs ref(%d %d %d %d)",
				rank, d.NLocal, d.NGhost, d.CrossArcs, d.NumBoundary,
				r.NLocal, r.NGhost, r.CrossArcs, r.NumBoundary)
		}
		// Same owned vertices in the same order.
		for i := 0; i < d.NLocal; i++ {
			if d.GlobalID[i] != r.GlobalID[i] {
				t.Fatalf("rank %d owned[%d]: %d vs %d", rank, i, d.GlobalID[i], r.GlobalID[i])
			}
		}
		// Same ghost set and owners.
		for i := 0; i < d.NGhost; i++ {
			if d.GlobalID[d.NLocal+i] != r.GlobalID[r.NLocal+i] ||
				d.GhostOwner[i] != r.GhostOwner[i] {
				t.Fatalf("rank %d ghost[%d] differs", rank, i)
			}
		}
		// Same edges and weights (adjacency order may differ; compare sets).
		for v := 0; v < d.NLocal; v++ {
			got := map[int64]float64{}
			for k, u := range d.Neighbors(int32(v)) {
				got[d.GlobalOf(u)] = d.Weight(d.Xadj[v] + int64(k))
			}
			want := map[int64]float64{}
			for k, u := range r.Neighbors(int32(v)) {
				want[r.GlobalOf(u)] = r.Weight(r.Xadj[v] + int64(k))
			}
			if len(got) != len(want) {
				t.Fatalf("rank %d vertex %d degree %d vs %d", rank, v, len(got), len(want))
			}
			for gid, w := range want {
				if got[gid] != w {
					t.Fatalf("rank %d vertex %d -> %d weight %g vs %g", rank, v, gid, got[gid], w)
				}
			}
		}
		// Neighbor ranks agree.
		if len(d.NeighborRanks) != len(r.NeighborRanks) {
			t.Fatalf("rank %d neighbor ranks %v vs %v", rank, d.NeighborRanks, r.NeighborRanks)
		}
		for i := range d.NeighborRanks {
			if d.NeighborRanks[i] != r.NeighborRanks[i] {
				t.Fatalf("rank %d neighbor ranks %v vs %v", rank, d.NeighborRanks, r.NeighborRanks)
			}
		}
	}
}

func TestBuildGridPaperSubgridExample(t *testing.T) {
	// Paper: 8,000x8,000 grid on 1,024 processors (32x32) gives each a
	// 250x250 subgrid. Shrunk: 80x80 on 16 (4x4) gives 20x20 = 400 each.
	spec := GridSpec{K1: 80, K2: 80, PR: 4, PC: 4, Weighted: false, Seed: 0}
	for rank := 0; rank < 16; rank++ {
		d, err := BuildGrid(spec, rank)
		if err != nil {
			t.Fatal(err)
		}
		if d.NLocal != 400 {
			t.Fatalf("rank %d owns %d vertices, want 400", rank, d.NLocal)
		}
		// Interior blocks have 4*20 boundary vertices minus corner sharing;
		// all blocks have boundary fraction well under half.
		if float64(d.NumBoundary)/float64(d.NLocal) > 0.5 {
			t.Fatalf("rank %d boundary fraction too high", rank)
		}
	}
}

func TestBuildGridSingleRank(t *testing.T) {
	spec := GridSpec{K1: 5, K2: 5, PR: 1, PC: 1, Weighted: true, Seed: 1}
	d, err := BuildGrid(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NGhost != 0 || d.NumBoundary != 0 || d.CrossArcs != 0 {
		t.Fatalf("single rank has ghosts: %+v", d)
	}
	if d.NLocal != 25 || len(d.NeighborRanks) != 0 {
		t.Fatalf("single rank share wrong: %+v", d)
	}
}

func TestBuildGridRejectsBadSpecs(t *testing.T) {
	if _, err := BuildGrid(GridSpec{K1: 0, K2: 5, PR: 1, PC: 1}, 0); err == nil {
		t.Error("accepted zero grid")
	}
	if _, err := BuildGrid(GridSpec{K1: 2, K2: 2, PR: 3, PC: 1}, 0); err == nil {
		t.Error("accepted pr > k1")
	}
	if _, err := BuildGrid(GridSpec{K1: 4, K2: 4, PR: 2, PC: 2}, 7); err == nil {
		t.Error("accepted out-of-range rank")
	}
}

func TestLocalOfGlobalOfRoundTrip(t *testing.T) {
	spec := GridSpec{K1: 6, K2: 6, PR: 2, PC: 2, Weighted: false, Seed: 0}
	d, err := BuildGrid(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for l := int32(0); int(l) < d.NLocal+d.NGhost; l++ {
		got, ok := d.LocalOf(d.GlobalOf(l))
		if !ok || got != l {
			t.Fatalf("round trip failed at local %d", l)
		}
	}
	if _, ok := d.LocalOf(999999); ok {
		t.Error("LocalOf found a vertex not on this rank")
	}
}

// Property: distributing an arbitrary random graph over an arbitrary
// partition yields consistent shares (ownership partition, symmetric cross
// arcs, valid views).
func TestQuickDistributeConsistent(t *testing.T) {
	f := func(nRaw, mRaw, pRaw uint8, seed uint64) bool {
		n := int(nRaw)%50 + 2
		m := int64(mRaw)
		p := int(pRaw)%5 + 1
		g, err := gen.ErdosRenyi(n, m, true, seed)
		if err != nil {
			return false
		}
		part, err := partition.Random(g, p, seed)
		if err != nil {
			return false
		}
		shares, err := Distribute(g, part)
		if err != nil {
			return false
		}
		total := 0
		var cross int64
		for _, d := range shares {
			if d.Validate() != nil {
				return false
			}
			total += d.NLocal
			cross += d.CrossArcs
		}
		mm := partition.Measure(g, part)
		return total == n && cross == 2*mm.EdgeCut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorsAndRankStructure(t *testing.T) {
	spec := GridSpec{K1: 6, K2: 8, PR: 2, PC: 2, Weighted: true, Seed: 3}
	for rank := 0; rank < spec.P(); rank++ {
		d, err := BuildGrid(spec, rank)
		if err != nil {
			t.Fatal(err)
		}
		nLocal, arcs, cross, nbrs, err := spec.RankStructure(rank)
		if err != nil {
			t.Fatal(err)
		}
		if nLocal != d.NLocal || arcs != d.Xadj[d.NLocal] || cross != d.CrossArcs || nbrs != len(d.NeighborRanks) {
			t.Fatalf("rank %d: RankStructure (%d,%d,%d,%d) vs built (%d,%d,%d,%d)",
				rank, nLocal, arcs, cross, nbrs,
				d.NLocal, d.Xadj[d.NLocal], d.CrossArcs, len(d.NeighborRanks))
		}
		for v := int32(0); int(v) < d.NLocal; v++ {
			if d.Degree(v) != len(d.Neighbors(v)) {
				t.Fatal("Degree inconsistent with Neighbors")
			}
			if w := d.Weights(v); len(w) != d.Degree(v) {
				t.Fatal("Weights length mismatch")
			}
		}
	}
	if _, _, _, _, err := spec.RankStructure(99); err == nil {
		t.Fatal("accepted bad rank")
	}
	bad := GridSpec{K1: 0, K2: 1, PR: 1, PC: 1}
	if _, _, _, _, err := bad.RankStructure(0); err == nil {
		t.Fatal("accepted bad spec")
	}
}

func TestUnweightedShareWeights(t *testing.T) {
	spec := GridSpec{K1: 4, K2: 4, PR: 2, PC: 1, Weighted: false}
	d, err := BuildGrid(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Weights(0) != nil {
		t.Fatal("unweighted share has weights")
	}
	if d.Weight(0) != 1 {
		t.Fatal("unweighted arc weight != 1")
	}
}
