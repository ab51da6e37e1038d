package dgraph

import (
	"fmt"
	"maps"
	"sort"
	"testing"

	"repro/internal/partition"
)

// referencePairs fills d's pair tables the slow way — collect, sort by global
// id, look up through maps — as the oracle buildPairs is compared against.
func referencePairs(d *DistGraph) {
	type edge struct {
		lo, hi int64 // global ids on the lower and the higher rank
		arc    int64
	}
	edges := map[int][]edge{}
	shown := map[int]map[int32]bool{}
	for v := int32(0); int(v) < d.NLocal; v++ {
		for i := d.Xadj[v]; i < d.Xadj[v+1]; i++ {
			u := d.Adj[i]
			if !d.IsGhost(u) {
				continue
			}
			r := d.OwnerOf(u)
			e := edge{d.GlobalOf(v), d.GlobalOf(u), i}
			if r < d.Rank {
				e.lo, e.hi = e.hi, e.lo
			}
			edges[r] = append(edges[r], e)
			if shown[r] == nil {
				shown[r] = map[int32]bool{}
			}
			shown[r][v] = true
		}
	}
	d.Pairs = make([]Pair, len(d.NeighborRanks))
	d.EdgeAt = make([]int32, d.Xadj[d.NumBoundary])
	shownAt := map[[2]int32]int32{} // (vertex, rank) -> index
	for s, r := range d.NeighborRanks {
		p := &d.Pairs[s]
		es := edges[r]
		sort.Slice(es, func(i, j int) bool {
			return es[i].lo < es[j].lo || (es[i].lo == es[j].lo && es[i].hi < es[j].hi)
		})
		for k, e := range es {
			v := int32(sort.Search(d.NLocal, func(v int) bool { return d.Xadj[v+1] > e.arc }))
			p.Edges = append(p.Edges, CrossEdge{V: v, U: d.Adj[e.arc]})
			d.EdgeAt[e.arc] = int32(k)
		}
		for v := range shown[r] {
			p.Shown = append(p.Shown, v)
		}
		sort.Slice(p.Shown, func(i, j int) bool { return p.Shown[i] < p.Shown[j] })
		for k, v := range p.Shown {
			shownAt[[2]int32{v, int32(r)}] = int32(k)
		}
	}
	d.ShownOff = make([]int32, d.NumBoundary+1)
	d.ShownList = make([]ShownAt, 0, len(shownAt))
	for v := int32(0); int(v) < d.NumBoundary; v++ {
		// In the order v's row first reaches each rank.
		for _, u := range d.Neighbors(v) {
			if !d.IsGhost(u) {
				continue
			}
			r := int32(d.OwnerOf(u))
			if k, ok := shownAt[[2]int32{v, r}]; ok {
				d.ShownList = append(d.ShownList, ShownAt{Rank: r, Index: k})
				delete(shownAt, [2]int32{v, r})
			}
		}
		d.ShownOff[v+1] = int32(len(d.ShownList))
	}
}

// checkPairTables holds the shares of one distributed graph to what the wire
// codecs assume: for every pair of ranks the two halves of the table name the
// same (gid, gid) edge and the same gid at every index, and every cross arc
// and every (boundary vertex, neighbor rank) appears exactly once.
func checkPairTables(t *testing.T, name string, shares []*DistGraph) {
	t.Helper()
	for a, da := range shares {
		if err := da.Validate(); err != nil {
			t.Fatalf("%s rank %d: %v", name, a, err)
		}
		if len(da.NeighborRanks) == 0 && (len(da.Pairs) != 0 || len(da.ShownList) != 0) {
			t.Fatalf("%s rank %d: tables without a neighbor", name, a)
		}
		// How often each cross arc and each (neighbor rank, boundary vertex)
		// is in the tables — Index holding the vertex — against once each.
		arcs, shown := map[CrossEdge]int{}, map[ShownAt]int{}
		for s, p := range da.Pairs {
			b := da.NeighborRanks[s]
			db := shares[b]
			q := db.PairWith(a)
			lo, hi := db.GhostsOf(a) // what a shows b
			ghostsA, ghostsB := da.GhostBase[s+1]-da.GhostBase[s], hi-lo
			if len(p.Edges) != len(q.Edges) || len(p.Shown) != int(ghostsB) || int(ghostsA) != len(q.Shown) {
				t.Fatalf("%s ranks %d, %d: tables of %d/%d/%d entries against %d/%d/%d", name, a, b,
					len(p.Edges), len(p.Shown), ghostsA, len(q.Edges), ghostsB, len(q.Shown))
			}
			if len(p.Edges) == 0 || len(p.Shown) == 0 || ghostsA == 0 {
				t.Fatalf("%s ranks %d, %d: neighbors with an empty table", name, a, b)
			}
			for k, e := range p.Edges {
				f := q.Edges[k]
				if da.GlobalOf(e.V) != db.GlobalOf(f.U) || da.GlobalOf(e.U) != db.GlobalOf(f.V) {
					t.Fatalf("%s ranks %d, %d: edge %d is {%d,%d} on one side, {%d,%d} on the other", name, a, b, k,
						da.GlobalOf(e.V), da.GlobalOf(e.U), db.GlobalOf(f.U), db.GlobalOf(f.V))
				}
				arcs[e]++
			}
			for k, v := range p.Shown {
				if da.GlobalOf(v) != db.GlobalOf(lo+int32(k)) {
					t.Fatalf("%s ranks %d, %d: shown vertex %d is %d on one side, %d on the other", name, a, b, k,
						da.GlobalOf(v), db.GlobalOf(lo+int32(k)))
				}
				shown[ShownAt{Rank: int32(b), Index: v}]++
			}
		}
		if da.PairWith(a).Edges != nil || da.PairWith(-1).Edges != nil || da.PairWith(da.P).Edges != nil {
			t.Fatalf("%s rank %d: a table with itself or with no rank", name, a)
		}
		wantArcs, wantShown := map[CrossEdge]int{}, map[ShownAt]int{}
		for v := int32(0); int(v) < da.NLocal; v++ {
			for _, u := range da.Neighbors(v) {
				if da.IsGhost(u) {
					wantArcs[CrossEdge{V: v, U: u}] = 1
					wantShown[ShownAt{Rank: int32(da.OwnerOf(u)), Index: v}] = 1
				}
			}
		}
		if !maps.Equal(arcs, wantArcs) {
			t.Fatalf("%s rank %d: the tables hold cross arcs %v, the share has %v once each", name, a, arcs, wantArcs)
		}
		if !maps.Equal(shown, wantShown) {
			t.Fatalf("%s rank %d: the tables show (rank, vertex) %v, the share has %v once each", name, a, shown, wantShown)
		}
	}
}

// TestPairTablesAgree is the property the pair-local codecs rest on, over
// generated graphs × partitioners × rank counts — with an empty part wedged
// in, and on the sparse input ranks without any neighbor — and over the
// grid shares cut in the figures' blocks.
func TestPairTablesAgree(t *testing.T) {
	lonely := false
	for gname, g := range differentialGraphs(t) {
		for _, pname := range []string{"block", "random", "bfs", "multilevel"} {
			partitioner, err := partition.ByName(pname)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 3, 4, 7} {
				part, err := partitioner(g, p, partition.MultilevelOptions{Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				holed := &partition.Partition{P: p + 1, Part: make([]int32, len(part.Part))}
				for v, r := range part.Part {
					if int(r) >= p/2 {
						r++
					}
					holed.Part[v] = r
				}
				for _, part := range []*partition.Partition{part, holed} {
					shares, err := Distribute(g, part)
					if err != nil {
						t.Fatal(err)
					}
					checkPairTables(t, fmt.Sprintf("%s/%s/p=%d of %d", gname, pname, p, part.P), shares)
					for _, d := range shares {
						lonely = lonely || (d.NLocal > 0 && len(d.NeighborRanks) == 0 && part.P > 1)
					}
				}
			}
		}
	}
	if !lonely {
		t.Error("no input left a non-empty rank without a neighbor")
	}
	for _, tc := range []struct {
		spec     GridSpec
		weighted bool
		seed     uint64
	}{
		{GridSpec{K1: 1, K2: 1, PR: 1, PC: 1}, false, 0},
		{GridSpec{K1: 9, K2: 7, PR: 1, PC: 1}, false, 0},
		{GridSpec{K1: 9, K2: 7, PR: 3, PC: 1}, true, 3},
		{GridSpec{K1: 9, K2: 7, PR: 1, PC: 7}, false, 0},
		{GridSpec{K1: 9, K2: 7, PR: 2, PC: 2}, false, 0},
		{GridSpec{K1: 10, K2: 11, PR: 4, PC: 3}, true, 1},
		{GridSpec{K1: 5, K2: 5, PR: 5, PC: 5}, false, 0},
	} {
		checkPairTables(t, fmt.Sprintf("grid %+v", tc.spec), gridShares(t, tc.spec, tc.weighted, tc.seed))
	}
}

// TestValidateRejectsCorruptPairTables: every table the codecs index through
// is held to the share by Validate, so one wrong entry anywhere is an error
// before it is a wrong vertex on some other rank.
func TestValidateRejectsCorruptPairTables(t *testing.T) {
	d := gridShares(t, GridSpec{K1: 8, K2: 8, PR: 2, PC: 2}, false, 0)[1]
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	p := &d.Pairs[0]
	boundary := p.Shown[0]
	arc := d.Xadj[boundary]
	for !d.IsGhost(d.Adj[arc]) {
		arc++
	}
	beside := arc + 1 // an arc of the same row
	if beside == d.Xadj[boundary+1] {
		beside = arc - 1
	}
	swap32 := func(xs []int32) func() { return func() { xs[0], xs[1] = xs[1], xs[0] } }
	swap64 := func(xs []int64) { xs[0], xs[1] = xs[1], xs[0] }
	for _, tc := range []struct {
		name        string
		corrupt, un func()
	}{
		{"two edges swapped", func() { p.Edges[0], p.Edges[1] = p.Edges[1], p.Edges[0] }, func() { p.Edges[0], p.Edges[1] = p.Edges[1], p.Edges[0] }},
		{"an edge with its ends swapped", func() { p.Edges[0].V, p.Edges[0].U = p.Edges[0].U, p.Edges[0].V }, func() { p.Edges[0].V, p.Edges[0].U = p.Edges[0].U, p.Edges[0].V }},
		{"an edge dropped", func() { p.Edges = p.Edges[:len(p.Edges)-1] }, func() { p.Edges = p.Edges[:len(p.Edges)+1] }},
		{"EdgeAt off by one", func() { d.EdgeAt[arc]++ }, func() { d.EdgeAt[arc]-- }},
		{"EdgeAt negative", func() { d.EdgeAt[arc] -= 100 }, func() { d.EdgeAt[arc] += 100 }},
		{"shown vertices swapped", swap32(p.Shown), swap32(p.Shown)},
		{"ghosts swapped", func() { swap64(d.GlobalID[d.NLocal:]) }, func() { swap64(d.GlobalID[d.NLocal:]) }},
		{"GhostBase shifted", func() { d.GhostBase[1]++ }, func() { d.GhostBase[1]-- }},
		{"a ShownAt index off by one", func() { d.ShownList[0].Index++ }, func() { d.ShownList[0].Index-- }},
		{"a ShownAt naming the wrong rank", func() { d.ShownList[0].Rank = int32(d.NeighborRanks[1]) }, func() { d.ShownList[0].Rank = int32(d.NeighborRanks[0]) }},
		{"ShownOff shifted", func() { d.ShownOff[boundary+1]++ }, func() { d.ShownOff[boundary+1]-- }},
		{"a pair dropped", func() { d.Pairs = d.Pairs[:1] }, func() { d.Pairs = d.Pairs[:2] }},
		{"EdgeAt short", func() { d.EdgeAt = d.EdgeAt[:len(d.EdgeAt)-1] }, func() { d.EdgeAt = d.EdgeAt[:len(d.EdgeAt)+1] }},
		{"a row out of order", func() { d.Adj[arc], d.Adj[beside] = d.Adj[beside], d.Adj[arc] }, func() { d.Adj[arc], d.Adj[beside] = d.Adj[beside], d.Adj[arc] }},
	} {
		tc.corrupt()
		if err := d.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		tc.un()
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: not restored: %v", tc.name, err)
		}
	}
}
