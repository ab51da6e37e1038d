package dgraph

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
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
		for i, r := range d.NeighborRanks {
			lo, hi := d.GhostsOf(r)
			if lo != d.GhostBase[i] || hi != d.GhostBase[i+1] || lo >= hi {
				t.Fatalf("rank %d: GhostsOf(%d) = [%d, %d), GhostBase %v", d.Rank, r, lo, hi, d.GhostBase)
			}
		}
		for l := int32(d.NLocal); int(l) < d.NLocal+d.NGhost; l++ {
			gid := d.GlobalOf(l)
			if want := int(part.Part[gid]); d.OwnerOf(l) != want || d.NeighborRanks[d.NeighborOf(l)] != want {
				t.Fatalf("rank %d ghost %d owner %d, want %d", d.Rank, gid, d.OwnerOf(l), want)
			}
		}
		if d.OwnerOf(0) != d.Rank {
			t.Fatal("OwnerOf(owned) != own rank")
		}
		if lo, hi := d.GhostsOf(d.Rank); lo != hi {
			t.Fatalf("rank %d owns ghosts of itself: [%d, %d)", d.Rank, lo, hi)
		}
	}
}

// gridShares cuts the k1 × k2 five-point grid into spec's blocks the way the
// grid figures do: generate it whole, partition.Grid2D, Distribute. An
// unweighted grid keeps no weights (the generator stores unit ones).
func gridShares(t testing.TB, spec GridSpec, weighted bool, seed uint64) []*DistGraph {
	t.Helper()
	g, err := gen.Grid2D(spec.K1, spec.K2, weighted, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !weighted {
		g = &graph.Graph{Xadj: g.Xadj, Adj: g.Adj}
	}
	part, err := partition.Grid2D(spec.K1, spec.K2, spec.PR, spec.PC)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	return shares
}

// TestRankStructurePaperSubgridExample is the paper's own example, checked as
// arithmetic: an 8,000 × 8,000 grid on 1,024 processors (32 × 32) gives each
// a 250 × 250 subgrid.
func TestRankStructurePaperSubgridExample(t *testing.T) {
	spec := GridSpec{K1: 8000, K2: 8000, PR: 32, PC: 32}
	for rank := 0; rank < spec.P(); rank++ {
		nLocal, _, _, _, err := spec.RankStructure(rank)
		if err != nil {
			t.Fatal(err)
		}
		if nLocal != 62500 {
			t.Fatalf("rank %d owns %d vertices, want 62500", rank, nLocal)
		}
	}
	for _, tc := range []struct {
		rank        int
		arcs, cross int64
		nbrs        int
	}{
		{33, 250000, 1000, 4}, // interior: row 1, column 1
		{0, 249500, 500, 2},
		{31, 249500, 500, 2},
		{1023, 249500, 500, 2},
	} {
		_, arcs, cross, nbrs, err := spec.RankStructure(tc.rank)
		if err != nil {
			t.Fatal(err)
		}
		if arcs != tc.arcs || cross != tc.cross || nbrs != tc.nbrs {
			t.Errorf("rank %d: %d arcs, %d cross arcs, %d neighbour ranks; want %d, %d, %d",
				tc.rank, arcs, cross, nbrs, tc.arcs, tc.cross, tc.nbrs)
		}
	}
}

func TestSingleRankGridShare(t *testing.T) {
	d := gridShares(t, GridSpec{K1: 5, K2: 5, PR: 1, PC: 1}, true, 1)[0]
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

func TestRankStructureRejectsBadSpecs(t *testing.T) {
	if _, _, _, _, err := (GridSpec{K1: 0, K2: 5, PR: 1, PC: 1}).RankStructure(0); err == nil {
		t.Error("accepted zero grid")
	}
	if _, _, _, _, err := (GridSpec{K1: 2, K2: 2, PR: 3, PC: 1}).RankStructure(0); err == nil {
		t.Error("accepted pr > k1")
	}
	if _, _, _, _, err := (GridSpec{K1: 4, K2: 4, PR: 2, PC: 2}).RankStructure(7); err == nil {
		t.Error("accepted out-of-range rank")
	}
}

func TestLocalOfGlobalOfRoundTrip(t *testing.T) {
	d := gridShares(t, GridSpec{K1: 6, K2: 6, PR: 2, PC: 2}, false, 0)[1]
	onRank := make([]bool, d.GlobalN)
	for l := int32(0); int(l) < d.NLocal+d.NGhost; l++ {
		got, ok := d.LocalOf(d.GlobalOf(l))
		if !ok || got != l {
			t.Fatalf("round trip failed at local %d", l)
		}
		onRank[d.GlobalOf(l)] = true
	}
	// Ids read off the wire may be anything: every id that is neither
	// owned nor a ghost here must miss as (0, false).
	absent := []int64{-1, -36, math.MinInt64, d.GlobalN, d.GlobalN + 1, 999999, math.MaxInt64}
	outOfRange := len(absent)
	for gid, on := range onRank {
		if !on {
			absent = append(absent, int64(gid))
		}
	}
	if len(absent) == outOfRange {
		t.Fatal("rank 1 of a 2x2 split sees every vertex")
	}
	for _, gid := range absent {
		if l, ok := d.LocalOf(gid); ok || l != 0 {
			t.Errorf("LocalOf(%d) = (%d, %v) for an id not on this rank", gid, l, ok)
		}
	}
	if l, ok := new(DistGraph).LocalOf(0); ok || l != 0 {
		t.Errorf("LocalOf on a zero DistGraph = (%d, %v)", l, ok)
	}
}

func TestValidateCatchesBrokenIndex(t *testing.T) {
	d := gridShares(t, GridSpec{K1: 6, K2: 6, PR: 2, PC: 2}, false, 0)[1]
	// An id LocalOf does not resolve back to its own slot.
	d.GlobalID[0], d.GlobalID[1] = d.GlobalID[1], d.GlobalID[0]
	if err := d.Validate(); err == nil {
		t.Error("accepted a share whose GlobalID is out of order")
	}
	d.GlobalID[0], d.GlobalID[1] = d.GlobalID[1], d.GlobalID[0]
	d.GlobalID[d.NLocal+d.NGhost-1] = d.GlobalN
	if err := d.Validate(); err == nil {
		t.Error("accepted a ghost id beyond GlobalN")
	}
	// A palette sized from a Δ below an owned vertex's degree could run out
	// of colors; a boundary count off by one would misplace the first round's
	// order.
	d = gridShares(t, GridSpec{K1: 6, K2: 6, PR: 2, PC: 2}, false, 0)[1]
	d.GlobalMaxDegree--
	if err := d.Validate(); err == nil {
		t.Error("accepted a GlobalMaxDegree below an owned vertex's degree")
	}
	d.GlobalMaxDegree++
	d.NumBoundary++
	if err := d.Validate(); err == nil {
		t.Error("accepted a NumBoundary one above the boundary prefix")
	}
	d.NumBoundary--
	if err := d.Validate(); err != nil {
		t.Fatalf("restored share: %v", err)
	}
}

// TestValidateRecomputesPreferred: Validate holds every Preferred entry to
// the scan — a stale first candidate would start every job on a share from a
// choice the graph does not make.
func TestValidateRecomputesPreferred(t *testing.T) {
	for _, weighted := range []bool{true, false} {
		d := gridShares(t, GridSpec{K1: 6, K2: 6, PR: 2, PC: 2}, weighted, 4)[1]
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		for v := range d.Preferred {
			k := d.Preferred[v]
			d.Preferred[v] = (k + 1) % int32(d.Degree(int32(v)))
			if err := d.Validate(); err == nil {
				t.Errorf("weighted %v: accepted vertex %d preferring arc %d where the scan picks %d", weighted, v, d.Preferred[v], k)
			}
			d.Preferred[v] = k
		}
		d.Preferred = d.Preferred[:len(d.Preferred)-1]
		if err := d.Validate(); err == nil {
			t.Errorf("weighted %v: accepted a Preferred one entry short", weighted)
		}
	}
}

// TestValidateRecomputesCross: Validate holds the cross-arc index to a filter
// of each row — an entry shifted to an interior arc, or an index one entry
// short, would have the matching's retire skip a ghost or send along an
// interior arc.
func TestValidateRecomputesCross(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 240, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	d := shares[1]
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < d.NumBoundary; v++ {
		if d.Degree(v) < 2 {
			continue // no other position to shift to
		}
		for i := d.CrossOff[v]; i < d.CrossOff[v+1]; i++ {
			k := d.CrossPos[i]
			d.CrossPos[i] = (k + 1) % int32(d.Degree(v))
			if err := d.Validate(); err == nil {
				t.Errorf("accepted vertex %d listing arc %d to a ghost where its row has arc %d", v, d.CrossPos[i], k)
			}
			d.CrossPos[i] = k
		}
	}
	if d.CrossArcs == 0 {
		t.Fatal("rank 1 of a random 3-way split has no cross arc")
	}
	pos := d.CrossPos
	d.CrossPos = pos[:len(pos)-1]
	if err := d.Validate(); err == nil {
		t.Error("accepted a CrossPos one entry short")
	}
	d.CrossPos = pos
	off := d.CrossOff
	d.CrossOff = off[:len(off)-1]
	if err := d.Validate(); err == nil {
		t.Error("accepted a CrossOff one boundary row short")
	}
	d.CrossOff = off
	if err := d.Validate(); err != nil {
		t.Fatalf("restored share: %v", err)
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

// TestAccessorsAndRankStructure holds the block arithmetic the grid figures
// extend to model scale to the shares Distribute cuts, at every rank.
func TestAccessorsAndRankStructure(t *testing.T) {
	for _, tc := range []struct {
		spec     GridSpec
		weighted bool
		seed     uint64
	}{
		{GridSpec{K1: 9, K2: 11, PR: 3, PC: 2}, true, 42},
		{GridSpec{K1: 8, K2: 8, PR: 2, PC: 2}, false, 0},
		{GridSpec{K1: 7, K2: 5, PR: 1, PC: 5}, true, 1},
		{GridSpec{K1: 6, K2: 6, PR: 1, PC: 1}, true, 9},
	} {
		for rank, d := range gridShares(t, tc.spec, tc.weighted, tc.seed) {
			if err := d.Validate(); err != nil {
				t.Fatalf("%+v rank %d: %v", tc.spec, rank, err)
			}
			nLocal, arcs, cross, nbrs, err := tc.spec.RankStructure(rank)
			if err != nil {
				t.Fatal(err)
			}
			if nLocal != d.NLocal || arcs != d.Xadj[d.NLocal] || cross != d.CrossArcs || nbrs != len(d.NeighborRanks) {
				t.Fatalf("%+v rank %d: RankStructure (%d,%d,%d,%d) vs built (%d,%d,%d,%d)",
					tc.spec, rank, nLocal, arcs, cross, nbrs,
					d.NLocal, d.Xadj[d.NLocal], d.CrossArcs, len(d.NeighborRanks))
			}
			for v := int32(0); int(v) < d.NLocal; v++ {
				if d.Degree(v) != len(d.Neighbors(v)) {
					t.Fatal("Degree inconsistent with Neighbors")
				}
				if w := d.Weights(v); tc.weighted && len(w) != d.Degree(v) {
					t.Fatal("Weights length mismatch")
				}
			}
		}
	}
}

func TestUnweightedShareWeights(t *testing.T) {
	d := gridShares(t, GridSpec{K1: 4, K2: 4, PR: 2, PC: 1}, false, 0)[0]
	if d.Weights(0) != nil {
		t.Fatal("unweighted share has weights")
	}
	if d.Weight(0) != 1 {
		t.Fatal("unweighted arc weight != 1")
	}
}

// exportedDiff names the first exported field in which two shares differ
// under reflect.DeepEqual, or returns "".
func exportedDiff(got, want *DistGraph) string {
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		if f.IsExported() && !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return fmt.Sprintf("%s = %v, want %v", f.Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	return ""
}

// referenceBuildLocal is the map-based construction Distribute used before
// it went map-free, in today's layout, kept as the oracle the dense-array
// build is compared against: same fields, same order, one hash lookup per
// arc, and the layout by sorting rather than by counting.
func referenceBuildLocal(g *graph.Graph, part *partition.Partition, rank int, owned []graph.Vertex) *DistGraph {
	d := &DistGraph{
		Rank:        rank,
		P:           part.P,
		GlobalN:     int64(g.NumVertices()),
		GlobalEdges: g.NumEdges(),
		NLocal:      len(owned),
	}
	// Δ over every vertex of the graph, owned here or not: the same on every
	// share.
	for v := 0; v < g.NumVertices(); v++ {
		d.GlobalMaxDegree = max(d.GlobalMaxDegree, len(g.Neighbors(graph.Vertex(v))))
	}
	ghostSet := make(map[int64]int32) // global id -> owner
	boundary := map[graph.Vertex]bool{}
	for _, v := range owned {
		for _, u := range g.Neighbors(v) {
			if part.Part[u] != int32(rank) {
				ghostSet[int64(u)] = part.Part[u]
				boundary[v] = true
			}
		}
	}
	// Owned: the boundary vertices, then the interior ones, each ascending.
	ownedIDs := make([]graph.Vertex, len(owned))
	copy(ownedIDs, owned)
	sort.SliceStable(ownedIDs, func(i, j int) bool { return boundary[ownedIDs[i]] && !boundary[ownedIDs[j]] })
	d.NumBoundary = len(boundary)
	globalToLocal := make(map[int64]int32, len(owned)*2)
	d.GlobalID = make([]int64, len(owned), len(owned)*2)
	for i, v := range ownedIDs {
		d.GlobalID[i] = int64(v)
		globalToLocal[int64(v)] = int32(i)
	}
	// Ghosts: by owner, then by id.
	ghosts := make([]int64, 0, len(ghostSet))
	for gid := range ghostSet {
		ghosts = append(ghosts, gid)
	}
	sort.Slice(ghosts, func(i, j int) bool {
		a, b := ghosts[i], ghosts[j]
		return ghostSet[a] < ghostSet[b] || (ghostSet[a] == ghostSet[b] && a < b)
	})
	d.NGhost = len(ghosts)
	for i, gid := range ghosts {
		d.GlobalID = append(d.GlobalID, gid)
		globalToLocal[gid] = int32(d.NLocal + i)
		if r := int(ghostSet[gid]); i == 0 || r != d.NeighborRanks[len(d.NeighborRanks)-1] {
			d.NeighborRanks = append(d.NeighborRanks, r)
			d.GhostBase = append(d.GhostBase, int32(d.NLocal+i))
		}
	}
	d.GhostBase = append(d.GhostBase, int32(d.NLocal+d.NGhost))
	d.Xadj = make([]int64, d.NLocal+1)
	var arcs int64
	for i, v := range ownedIDs {
		arcs += int64(g.Degree(v))
		d.Xadj[i+1] = arcs
	}
	d.Adj = make([]int32, arcs)
	if g.W != nil {
		d.W = make([]float64, arcs)
	}
	// Preferred, by the rule rather than by row order: the heaviest edge, and
	// of equally heavy ones the one to the smallest global id.
	d.Preferred = make([]int32, d.NLocal)
	for i, v := range ownedIDs {
		d.Preferred[i] = -1
		var bestW float64
		var bestU graph.Vertex
		for k, u := range g.Neighbors(v) {
			w := g.Weight(g.Xadj[v] + int64(k))
			if d.Preferred[i] < 0 || w > bestW || w == bestW && u < bestU {
				d.Preferred[i], bestW, bestU = int32(k), w, u
			}
		}
	}
	for i, v := range ownedIDs {
		pos := d.Xadj[i]
		for k, u := range g.Neighbors(v) {
			lu := globalToLocal[int64(u)]
			d.Adj[pos] = lu
			if d.W != nil {
				d.W[pos] = g.W[g.Xadj[v]+int64(k)]
			}
			if d.IsGhost(lu) {
				d.CrossArcs++
			}
			pos++
		}
	}
	// The cross-arc index, by filtering each boundary row for ghosts.
	d.CrossOff = make([]int32, d.NumBoundary+1)
	d.CrossPos = []int32{}
	for v := 0; v < d.NumBoundary; v++ {
		for k, u := range d.Neighbors(int32(v)) {
			if d.IsGhost(u) {
				d.CrossPos = append(d.CrossPos, int32(k))
			}
		}
		d.CrossOff[v+1] = int32(len(d.CrossPos))
	}
	referencePairs(d)
	return d
}

// differentialGraphs are the inputs the differential and concurrency tests
// share: regular, irregular, skewed, with isolated vertices, unweighted.
func differentialGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphs := map[string]*graph.Graph{
		"grid":     must(gen.Grid2D(13, 17, true, 5)),
		"er":       must(gen.ErdosRenyi(200, 900, true, 3)),
		"rmat":     must(gen.RMAT(8, 8, true, 7)),
		"circuit":  must(gen.Circuit(14, 14, 0.45, true, 1)),
		"isolated": must(gen.ErdosRenyi(120, 40, true, 11)),
	}
	er := must(gen.ErdosRenyi(150, 600, false, 2))
	graphs["unweighted"] = &graph.Graph{Xadj: er.Xadj, Adj: er.Adj} // generators store unit weights; W == nil is its own path
	graphs["ties"] = er                                             // every arc weighs 1: Preferred rests on the tie rule alone
	isolated := 0
	for v := 0; v < graphs["isolated"].NumVertices(); v++ {
		if graphs["isolated"].Degree(graph.Vertex(v)) == 0 {
			isolated++
		}
	}
	if isolated == 0 {
		t.Fatal("the sparse input has no isolated vertex")
	}
	return graphs
}

// TestWholeIsTheOneRankShare: the ghost-free view of a graph has the rows
// and first candidates of the graph's one-rank share, and aliases the graph's
// arrays instead of copying them.
func TestWholeIsTheOneRankShare(t *testing.T) {
	for name, g := range differentialGraphs(t) {
		part, err := partition.Block1D(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := Distribute(g, part)
		if err != nil {
			t.Fatal(err)
		}
		one, w := shares[0], Whole(g)
		if w.NLocal != one.NLocal || w.NGhost != 0 || w.NumBoundary != 0 || w.GlobalN != one.GlobalN || w.GlobalEdges != one.GlobalEdges {
			t.Fatalf("%s: Whole counts %+v, one-rank share %+v", name, w, one)
		}
		if !reflect.DeepEqual(w.Xadj, one.Xadj) || !reflect.DeepEqual(w.Adj, one.Adj) || !reflect.DeepEqual(w.W, one.W) || !reflect.DeepEqual(w.Preferred, one.Preferred) {
			t.Fatalf("%s: Whole's rows or first candidates differ from the one-rank share's", name)
		}
		if &w.Xadj[0] != &g.Xadj[0] || (len(g.Adj) > 0 && &w.Adj[0] != &g.Adj[0]) || (g.W != nil && &w.W[0] != &g.W[0]) {
			t.Fatalf("%s: Whole copied the graph's arrays", name)
		}
	}
}

// TestDistributeMatchesMapReference pins every exported field of every share
// against the old construction, including on a partition one of whose parts
// owns nothing (partition.Validate permits it).
func TestDistributeMatchesMapReference(t *testing.T) {
	for gname, g := range differentialGraphs(t) {
		for _, pname := range []string{"block", "random", "bfs", "multilevel"} {
			partitioner, err := partition.ByName(pname)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 3, 4, 7, 16} {
				part, err := partitioner(g, p, partition.MultilevelOptions{Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				// The same assignment with an empty part wedged in at p/2.
				holed := &partition.Partition{P: p + 1, Part: make([]int32, len(part.Part))}
				for v, r := range part.Part {
					if int(r) >= p/2 {
						r++
					}
					holed.Part[v] = r
				}
				for _, part := range []*partition.Partition{part, holed} {
					name := fmt.Sprintf("%s/%s/p=%d of %d", gname, pname, p, part.P)
					shares, err := Distribute(g, part)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					owned := partition.PartVertices(part)
					for rank, d := range shares {
						if err := d.Validate(); err != nil {
							t.Fatalf("%s rank %d: %v", name, rank, err)
						}
						if diff := exportedDiff(d, referenceBuildLocal(g, part, rank, owned[rank])); diff != "" {
							t.Fatalf("%s rank %d: %s", name, rank, diff)
						}
					}
					if part.P > p && shares[p/2].NLocal+shares[p/2].NGhost != 0 {
						t.Fatalf("%s: the empty part's share is not empty", name)
					}
				}
			}
		}
	}
}

// TestDistributeConcurrent runs Distribute twice at once on the same graph
// and partition, as the daemon's two workers do; under -race this is what
// would catch build scratch shared between calls.
func TestDistributeConcurrent(t *testing.T) {
	g := differentialGraphs(t)["rmat"]
	part, err := partition.Multilevel(g, 4, partition.MultilevelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got, err := Distribute(g, part)
				if err != nil {
					t.Error(err)
					return
				}
				for rank := range got {
					if diff := exportedDiff(got[rank], want[rank]); diff != "" {
						t.Errorf("rank %d differs under concurrency: %s", rank, diff)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestAllocationBudget keeps a map from creeping back in: a lookup allocates
// nothing, and a build allocates a fixed number of slices per rank plus a
// logarithmic number of ghost-list growths — where one map insert per vertex
// would be thousands.
func TestAllocationBudget(t *testing.T) {
	g, err := gen.Grid2D(128, 128, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	part, err := partition.Random(g, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	d := shares[1]
	id := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		d.LocalOf(id)
		d.LocalOf(-id)
		id += 37
	}); n != 0 {
		t.Errorf("LocalOf allocates %v times per call pair", n)
	}
	const perRank = 40
	if n := testing.AllocsPerRun(5, func() {
		if _, err := Distribute(g, part); err != nil {
			t.Fatal(err)
		}
	}); n > perRank*p {
		t.Errorf("Distribute allocates %v times for %d ranks, budget %d per rank", n, p, perRank)
	}
}

// TestBytesCountsEveryField holds Bytes — what a retained share is charged
// against the daemon's byte budget — to the struct by reflection, one field
// at a time: emptying any slice field of DistGraph, or of one of its Pairs,
// takes exactly what that field holds off Bytes — its length times its
// element size, and for Pairs what each table holds besides. A slice
// field added to either later fails here until Bytes counts it, and so does
// a field Bytes counts at the wrong width.
func TestBytesCountsEveryField(t *testing.T) {
	g, err := gen.ErdosRenyi(300, 1500, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Random(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	// size is what a value's slices hold, nested ones included.
	var size func(v reflect.Value) int64
	size = func(v reflect.Value) int64 {
		var n int64
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				n += size(v.Field(i))
			}
		case reflect.Slice:
			n += int64(v.Len()) * int64(v.Type().Elem().Size())
			for i := 0; i < v.Len(); i++ {
				n += size(v.Index(i))
			}
		}
		return n
	}
	// drop empties slice field i of the struct v points at and reports the
	// bytes that took off Bytes, against what the field held.
	drop := func(d *DistGraph, v reflect.Value, i int) (took, held int64) {
		f := v.Elem().Field(i)
		saved := reflect.ValueOf(f.Interface())
		held = size(f)
		before := d.Bytes()
		f.Set(reflect.Zero(f.Type()))
		took = before - d.Bytes()
		f.Set(saved)
		return took, held
	}
	for rank, d := range shares {
		if len(d.Pairs) == 0 {
			t.Fatalf("rank %d has no pair table to check", rank)
		}
		for _, s := range []reflect.Value{reflect.ValueOf(d), reflect.ValueOf(&d.Pairs[0])} {
			typ := s.Elem().Type()
			for i := 0; i < typ.NumField(); i++ {
				if typ.Field(i).Type.Kind() != reflect.Slice {
					continue
				}
				took, held := drop(d, s, i)
				if took != held || held == 0 {
					t.Errorf("rank %d: emptying %s.%s takes %d bytes off Bytes(), it holds %d", rank, typ.Name(), typ.Field(i).Name, took, held)
				}
			}
		}
	}
}

// TestValidateRefusesMalformedShares corrupts one field of a good share per
// case — every field of DistGraph and of Pair has one — and wants an error
// from Validate, not a panic: a share arrives as data, and its arrays are
// only as long as they say.
func TestValidateRefusesMalformedShares(t *testing.T) {
	cases := map[string]func(d *DistGraph){
		"Rank":            func(d *DistGraph) { d.Rank = d.P },
		"P":               func(d *DistGraph) { d.P = 0 },
		"GlobalN":         func(d *DistGraph) { d.GlobalN = 1 },
		"GlobalEdges":     func(d *DistGraph) { d.GlobalEdges = 1 },
		"GlobalMaxDegree": func(d *DistGraph) { d.GlobalMaxDegree = 1 },
		"NLocal":          func(d *DistGraph) { d.NLocal++ },
		"NGhost":          func(d *DistGraph) { d.NGhost-- },
		"NumBoundary":     func(d *DistGraph) { d.NumBoundary = d.NLocal + 1 },
		"GlobalID":        func(d *DistGraph) { d.GlobalID = d.GlobalID[:len(d.GlobalID)-1] },
		"Xadj":            func(d *DistGraph) { d.Xadj[1] = d.Xadj[2] + 1 },
		"Adj":             func(d *DistGraph) { d.Adj = d.Adj[:len(d.Adj)-5] }, // Xadj runs past it
		"W":               func(d *DistGraph) { d.W = d.W[:len(d.W)-1] },
		"Preferred":       func(d *DistGraph) { d.Preferred = d.Preferred[:len(d.Preferred)-1] },
		"CrossArcs":       func(d *DistGraph) { d.CrossArcs++ },
		"CrossOff":        func(d *DistGraph) { d.CrossOff = d.CrossOff[:len(d.CrossOff)-1] },
		"CrossPos":        func(d *DistGraph) { d.CrossPos[0] = 1 << 20 },
		"NeighborRanks":   func(d *DistGraph) { d.NeighborRanks[0] = d.Rank },
		"GhostBase":       func(d *DistGraph) { d.GhostBase[len(d.GhostBase)-1] += 3 },
		"Pairs":           func(d *DistGraph) { d.Pairs = d.Pairs[:len(d.Pairs)-1] },
		"EdgeAt":          func(d *DistGraph) { d.EdgeAt = d.EdgeAt[:len(d.EdgeAt)-1] },
		"ShownOff":        func(d *DistGraph) { d.ShownOff[1] = 1 << 20 },
		"ShownList":       func(d *DistGraph) { d.ShownList[0].Index = -1 },
		"Pair.Edges":      func(d *DistGraph) { d.Pairs[0].Edges[0].U = 1 << 20 },
		"Pair.Shown":      func(d *DistGraph) { d.Pairs[0].Shown[0] = -1 },
	}
	for prefix, typ := range map[string]reflect.Type{"": reflect.TypeOf(DistGraph{}), "Pair.": reflect.TypeOf(Pair{})} {
		for i := 0; i < typ.NumField(); i++ {
			if _, ok := cases[prefix+typ.Field(i).Name]; !ok {
				t.Errorf("no malformed case for %s%s", prefix, typ.Field(i).Name)
			}
		}
	}
	for name, corrupt := range cases {
		d := gridShares(t, GridSpec{K1: 8, K2: 8, PR: 2, PC: 2}, true, 3)[1]
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		corrupt(d)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Validate panics: %v", name, r)
				}
			}()
			if err := d.Validate(); err == nil {
				t.Errorf("%s: accepted", name)
			}
		}()
	}
}
