package dgraph

import (
	"fmt"
	"slices"
)

// Pair tables. Two neighboring ranks share a set of cross edges, and each
// shows the other a set of boundary vertices (its ghosts there). Both ranks
// number those sets the same way from what each already holds — global ids,
// the share's layout, the CSR — so a record on the wire between them names an
// edge or a vertex by its small pair-local index, and the receiver turns the
// index back into local indices with one array read or one addition. No
// handshake, no map:
//
//   - cross edges, by (global id of the endpoint on the lower rank, global id
//     of the endpoint on the higher rank);
//   - the boundary vertices one rank shows the other, by global id.
//
// The second needs no table on the receiving side: the ghosts a neighbor
// owns are one run of local indices, ascending in global id, so the vertex
// the neighbor shows at index k is the ghost GhostBase[i] + k. The boundary
// vertices come first among the owned ones and ascend in global id, and rows
// ascend too, so the rest falls out of buildLocal's pass over the boundary
// rows: the lower rank meets its edges of a pair in order, the higher rank
// counting-sorts them by ghost.

// CrossEdge is a cross edge as one of its two shares holds it: the owned
// endpoint V and the ghost endpoint U, by local index.
type CrossEdge struct{ V, U int32 }

// Pair is a share's half of the table it keeps with one neighbor rank,
// NeighborRanks[i]. The neighbor's half lists the same edges at the same
// indices, with owned and ghost swapped; its Shown is this share's ghosts
// [GhostBase[i], GhostBase[i+1]), index for index, and the other way round.
type Pair struct {
	// Edges lists the cross edges shared with the neighbor, in pair order.
	Edges []CrossEdge
	// Shown lists the owned vertices with a neighbor over there, ascending.
	Shown []int32
}

// ShownAt places an owned boundary vertex in one pair table: it is
// Shown[Index] of the pair kept with Rank.
type ShownAt struct{ Rank, Index int32 }

// PairWith returns the pair table kept with rank — the table a message from
// that rank is decoded against. A rank that is no neighbor (or no rank at all)
// has the empty table, in which every index is out of range.
func (d *DistGraph) PairWith(rank int) Pair {
	if i, ok := slices.BinarySearch(d.NeighborRanks, rank); ok {
		return d.Pairs[i]
	}
	return Pair{}
}

// GhostsOf returns the run [lo, hi) of local indices holding the ghosts
// rank owns — the vertices that rank shows this one, in its Shown order. A
// rank that is no neighbor (or no rank at all) has the empty run.
func (d *DistGraph) GhostsOf(rank int) (lo, hi int32) {
	if i, ok := slices.BinarySearch(d.NeighborRanks, rank); ok {
		return d.GhostBase[i], d.GhostBase[i+1]
	}
	return 0, 0
}

// ShownTo lists where boundary vertex v appears in the pair tables: one
// entry per rank owning a neighbor of v. An interior vertex is shown to
// nobody and has no entry.
func (d *DistGraph) ShownTo(v int32) []ShownAt {
	return d.ShownList[d.ShownOff[v]:d.ShownOff[v+1]]
}

// newPairs sizes the pair tables of a share whose layout is set, and returns
// what fills them: buildLocal's pass over the boundary rows calls it once per
// cross arc, in row order — arc at position arc of the CSR, from boundary
// vertex v to ghost u, whose owner is NeighborRanks[s] — and so does
// validatePairs. deg[gi] is the number of owned neighbors of ghost slot gi;
// newPairs turns it into scratch.
func (d *DistGraph) newPairs(deg []int32, boundaryArcs int64) func(v, u, s int32, arc int64) {
	np := len(d.NeighborRanks)
	d.Pairs = make([]Pair, np)
	d.EdgeAt = make([]int32, boundaryArcs)
	d.ShownOff = make([]int32, d.NumBoundary+1)
	// The tables are cut from two arrays: the edges, and for the shown
	// vertices the bound of one per edge and per boundary vertex. Where this
	// is the higher rank, a ghost's first edge follows those of the pair's
	// smaller ghosts: deg becomes that index.
	next := make([]int32, np)
	shown := 0
	for s := range d.Pairs {
		for gi := d.GhostBase[s] - int32(d.NLocal); gi < d.GhostBase[s+1]-int32(d.NLocal); gi++ {
			c := deg[gi]
			if d.NeighborRanks[s] < d.Rank {
				deg[gi] = next[s]
			}
			next[s] += c
		}
		shown += min(int(next[s]), d.NumBoundary)
	}
	edges, shownTo := make([]CrossEdge, d.CrossArcs), make([]int32, shown)
	for s := range d.Pairs {
		n, m := next[s], min(int(next[s]), d.NumBoundary)
		d.Pairs[s] = Pair{Edges: edges[:n], Shown: shownTo[:0:m]}
		edges, shownTo = edges[n:], shownTo[m:]
	}
	d.ShownList = make([]ShownAt, 0, shown)
	// The next edge index per pair where this is the lower rank (it meets
	// those edges in order), and per ghost for the others.
	clear(next)
	return func(v, u, s int32, arc int64) {
		p := &d.Pairs[s]
		e := &next[s]
		if d.NeighborRanks[s] < d.Rank {
			e = &deg[int(u)-d.NLocal]
		}
		d.EdgeAt[arc] = *e
		p.Edges[*e] = CrossEdge{V: v, U: u}
		*e++
		if n := len(p.Shown); n == 0 || p.Shown[n-1] != v {
			d.ShownList = append(d.ShownList, ShownAt{Rank: int32(d.NeighborRanks[s]), Index: int32(n)})
			p.Shown = append(p.Shown, v)
			d.ShownOff[v+1] = int32(len(d.ShownList))
		}
	}
}

// validatePairs holds the pair tables to what newPairs makes of the rest of
// the share, which Validate has checked: the tables are a function of the
// layout and the boundary rows, as Preferred is of the rows. (The tests hold
// newPairs to a map-based oracle, and the two halves of each table to each
// other.)
func (d *DistGraph) validatePairs() error {
	boundaryArcs := d.Adj[:d.Xadj[d.NumBoundary]]
	deg := make([]int32, d.NGhost)
	for _, u := range boundaryArcs {
		if d.IsGhost(u) {
			deg[int(u)-d.NLocal]++
		}
	}
	want := *d
	add := want.newPairs(deg, int64(len(boundaryArcs)))
	for v := int32(0); int(v) < d.NumBoundary; v++ {
		for i := d.Xadj[v]; i < d.Xadj[v+1]; i++ {
			if u := d.Adj[i]; d.IsGhost(u) {
				add(v, u, int32(d.NeighborOf(u)), i)
			}
		}
	}
	samePair := func(p, q Pair) bool { return slices.Equal(p.Edges, q.Edges) && slices.Equal(p.Shown, q.Shown) }
	if !slices.EqualFunc(d.Pairs, want.Pairs, samePair) || !slices.Equal(d.EdgeAt, want.EdgeAt) ||
		!slices.Equal(d.ShownOff, want.ShownOff) || !slices.Equal(d.ShownList, want.ShownList) {
		return fmt.Errorf("dgraph: pair tables are not what the layout and the boundary rows give")
	}
	return nil
}

// ascending reports whether xs is strictly ascending.
func ascending[T int | int32 | int64](xs []T) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}
