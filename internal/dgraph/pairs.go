package dgraph

import (
	"fmt"
	"slices"
)

// Pair tables. Two neighboring ranks share a set of cross edges, and each
// shows the other a set of boundary vertices (its ghosts there). Both ranks
// number those sets the same way from what each already holds — sorted global
// ids, ghost owners, the CSR — so a record on the wire between them names an
// edge or a vertex by its small pair-local index, and the receiver turns the
// index back into local indices with one array read. No handshake, no map:
//
//   - cross edges, by (global id of the endpoint on the lower rank, global id
//     of the endpoint on the higher rank);
//   - the boundary vertices one rank shows the other, by global id.
//
// Local indices ascend with global ids among owned vertices and among ghosts,
// and rows ascend too, so both orders fall out of one scan of the boundary
// rows: the lower rank meets its edges of a pair in order, the higher rank
// counting-sorts them by ghost.

// CrossEdge is a cross edge as one of its two shares holds it: the owned
// endpoint V and the ghost endpoint U, by local index.
type CrossEdge struct{ V, U int32 }

// Pair is a share's half of the table it keeps with one neighbor rank. The
// neighbor's half lists the same edges and vertices at the same indices, with
// owned and ghost swapped: its Shown is this Ghosts and the other way round.
type Pair struct {
	// Edges lists the cross edges shared with the neighbor, in pair order.
	Edges []CrossEdge
	// Shown lists the owned vertices with a neighbor over there, ascending.
	Shown []int32
	// Ghosts lists the ghosts the neighbor owns, ascending local index.
	Ghosts []int32
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

// ShownTo lists where owned vertex v appears in the pair tables: one entry
// per rank owning a neighbor of v, none for an interior vertex.
func (d *DistGraph) ShownTo(v int32) []ShownAt {
	return d.ShownList[d.ShownOff[v]:d.ShownOff[v+1]]
}

// buildPairs derives the pair tables from the rest of a complete share. It is
// the one place the numbering is computed; buildLocal and BuildGrid both end
// with it. deg[gi] is the number of owned neighbors of ghost slot gi, which
// either builder has counted by the time its CSR is complete; buildPairs
// turns it into scratch.
func (d *DistGraph) buildPairs(deg []int32) {
	np := len(d.NeighborRanks)
	d.Pairs = make([]Pair, np)
	d.EdgeAt = make([]int32, len(d.Adj))
	d.GhostAt = make([]int32, d.NGhost)
	d.ShownOff = make([]int32, d.NLocal+1)

	// Sizes first, so that the tables are cut from three arrays: per pair its
	// ghosts and edges, and for its shown vertices the bound of one per edge
	// and per boundary vertex.
	scratch := make([]int32, d.P+2*np+d.NGhost)
	slot, scratch := scratch[:d.P], scratch[d.P:] // rank -> index into Pairs; read for ghost owners only
	nGhosts, nEdges, pairOf := scratch[:np], scratch[np:2*np], scratch[2*np:]
	for i, r := range d.NeighborRanks {
		slot[r] = int32(i)
	}
	for gi, r := range d.GhostOwner {
		s := slot[r]
		pairOf[gi] = s
		nGhosts[s]++
		nEdges[s] += deg[gi]
	}
	maxShown := func(s int) int { return min(int(nEdges[s]), d.NumBoundary) }
	shown := 0
	for s := range d.Pairs {
		shown += maxShown(s)
	}
	ghosts, shownTo, edges := make([]int32, d.NGhost), make([]int32, shown), make([]CrossEdge, d.CrossArcs)
	for s := range d.Pairs {
		d.Pairs[s] = Pair{Edges: edges[:nEdges[s]], Shown: shownTo[:0:maxShown(s)], Ghosts: ghosts[:0:nGhosts[s]]}
		ghosts, shownTo, edges = ghosts[nGhosts[s]:], shownTo[maxShown(s):], edges[nEdges[s]:]
	}
	d.ShownList = make([]ShownAt, 0, shown)

	// The next edge index per pair, for the pairs in which this is the lower
	// rank (it meets those edges in order), and per ghost, for the others (the
	// ghost's first edge follows those of the pair's smaller ghosts).
	next, nextOf := nEdges, deg
	clear(next)
	for gi, s := range pairOf {
		p := &d.Pairs[s]
		d.GhostAt[gi] = int32(len(p.Ghosts))
		p.Ghosts = append(p.Ghosts, int32(d.NLocal+gi))
		if d.NeighborRanks[s] < d.Rank {
			nextOf[gi], next[s] = next[s], next[s]+deg[gi]
		}
	}
	for v, boundary := range d.IsBoundary {
		if boundary {
			for i := d.Xadj[v]; i < d.Xadj[v+1]; i++ {
				u := d.Adj[i]
				gi := int(u) - d.NLocal
				if gi < 0 {
					continue
				}
				s := pairOf[gi]
				p := &d.Pairs[s]
				e := &next[s]
				if d.NeighborRanks[s] < d.Rank {
					e = &nextOf[gi]
				}
				d.EdgeAt[i] = *e
				p.Edges[*e] = CrossEdge{V: int32(v), U: u}
				*e++
				if n := len(p.Shown); n == 0 || p.Shown[n-1] != int32(v) {
					d.ShownList = append(d.ShownList, ShownAt{Rank: int32(d.NeighborRanks[s]), Index: int32(n)})
					p.Shown = append(p.Shown, int32(v))
				}
			}
		}
		d.ShownOff[v+1] = int32(len(d.ShownList))
	}
}

// validatePairs checks the pair tables against the rest of the share without
// going through buildPairs: every cross arc, ghost and (boundary vertex,
// neighbor rank) sits in exactly one table at exactly one index, the reverse
// tables agree, and every table is in pair order.
func (d *DistGraph) validatePairs() error {
	if len(d.Pairs) != len(d.NeighborRanks) || len(d.EdgeAt) != len(d.Adj) || len(d.GhostAt) != d.NGhost || len(d.ShownOff) != d.NLocal+1 {
		return fmt.Errorf("dgraph: pair tables sized %d pairs / %d arcs / %d ghosts / %d rows, want %d / %d / %d / %d",
			len(d.Pairs), len(d.EdgeAt), len(d.GhostAt), len(d.ShownOff), len(d.NeighborRanks), len(d.Adj), d.NGhost, d.NLocal+1)
	}
	if !ascending(d.NeighborRanks) || slices.Contains(d.NeighborRanks, d.Rank) ||
		(len(d.NeighborRanks) > 0 && (d.NeighborRanks[0] < 0 || d.NeighborRanks[len(d.NeighborRanks)-1] >= d.P)) {
		return fmt.Errorf("dgraph: NeighborRanks %v not ascending ranks other than %d of %d", d.NeighborRanks, d.Rank, d.P)
	}
	var ghosts, edges, shown int
	for _, p := range d.Pairs {
		ghosts, edges, shown = ghosts+len(p.Ghosts), edges+len(p.Edges), shown+len(p.Shown)
	}
	if ghosts != d.NGhost || int64(edges) != d.CrossArcs || shown != len(d.ShownList) {
		return fmt.Errorf("dgraph: pair tables hold %d ghosts / %d edges / %d shown vertices, share has %d / %d / %d",
			ghosts, edges, shown, d.NGhost, d.CrossArcs, len(d.ShownList))
	}
	// With the counts equal, each reverse entry naming its own slot makes the
	// tables and the share one-to-one.
	for gi, owner := range d.GhostOwner {
		p := d.PairWith(int(owner))
		if at := d.GhostAt[gi]; at < 0 || int(at) >= len(p.Ghosts) || int(p.Ghosts[at]) != d.NLocal+gi {
			return fmt.Errorf("dgraph: ghost slot %d is not Ghosts[%d] of the pair with rank %d", gi, at, owner)
		}
	}
	ownerOf := func(u int32) int32 { return d.GhostOwner[int(u)-d.NLocal] }
	if d.ShownOff[0] != 0 || int(d.ShownOff[d.NLocal]) != len(d.ShownList) {
		return fmt.Errorf("dgraph: ShownOff spans [%d, %d), ShownList has %d entries", d.ShownOff[0], d.ShownOff[d.NLocal], len(d.ShownList))
	}
	for v := int32(0); int(v) < d.NLocal; v++ {
		if d.ShownOff[v] > d.ShownOff[v+1] {
			return fmt.Errorf("dgraph: ShownOff not monotone at vertex %d", v)
		}
		at := d.ShownTo(v)
		for k, a := range at {
			if slices.ContainsFunc(at[:k], func(b ShownAt) bool { return b.Rank == a.Rank }) {
				return fmt.Errorf("dgraph: vertex %d is shown to rank %d twice", v, a.Rank)
			}
			p := d.PairWith(int(a.Rank))
			if a.Index < 0 || int(a.Index) >= len(p.Shown) || p.Shown[a.Index] != v {
				return fmt.Errorf("dgraph: vertex %d is not Shown[%d] of the pair with rank %d", v, a.Index, a.Rank)
			}
			if !slices.ContainsFunc(d.Neighbors(v), func(u int32) bool { return d.IsGhost(u) && ownerOf(u) == a.Rank }) {
				return fmt.Errorf("dgraph: vertex %d is shown to rank %d, which owns no neighbor of it", v, a.Rank)
			}
		}
		for i := d.Xadj[v]; i < d.Xadj[v+1]; i++ {
			u := d.Adj[i]
			if !d.IsGhost(u) {
				continue
			}
			p := d.PairWith(int(ownerOf(u)))
			if e := d.EdgeAt[i]; e < 0 || int(e) >= len(p.Edges) || p.Edges[e] != (CrossEdge{V: v, U: u}) {
				return fmt.Errorf("dgraph: arc %d -> %d is not Edges[%d] of the pair with rank %d", v, u, e, ownerOf(u))
			}
			if !slices.ContainsFunc(at, func(a ShownAt) bool { return a.Rank == ownerOf(u) }) {
				return fmt.Errorf("dgraph: vertex %d has a neighbor on rank %d and is not shown to it", v, ownerOf(u))
			}
		}
	}
	for i, p := range d.Pairs {
		r := d.NeighborRanks[i]
		if !ascending(p.Shown) || !ascending(p.Ghosts) {
			return fmt.Errorf("dgraph: pair table with rank %d: shown vertices or ghosts not ascending", r)
		}
		// Pair order: (gid on the lower rank, gid on the higher rank).
		for k := 1; k < len(p.Edges); k++ {
			lo, hi, prevLo, prevHi := p.Edges[k].V, p.Edges[k].U, p.Edges[k-1].V, p.Edges[k-1].U
			if r < d.Rank {
				lo, hi, prevLo, prevHi = hi, lo, prevHi, prevLo
			}
			if a, b := d.GlobalID[prevLo], d.GlobalID[lo]; a > b || (a == b && d.GlobalID[prevHi] >= d.GlobalID[hi]) {
				return fmt.Errorf("dgraph: pair table with rank %d: edge %d out of pair order", r, k)
			}
		}
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
