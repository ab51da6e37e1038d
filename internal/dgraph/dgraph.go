// Package dgraph implements the distributed graph representation the paper's
// algorithms operate on: each rank owns a subset of the vertices, stores the
// adjacency of its owned vertices, and represents cross edges through ghost
// vertices — "a boundary vertex u is stored on its corresponding processor
// p(u) as well as on every other processor p(v) such that (u, v) is a cross
// edge" (Section 3.3).
//
// Local indices are dense and laid out for the exchanges between ranks.
// Owned vertices occupy [0, NLocal): the boundary vertices (with a ghost
// neighbor) in [0, NumBoundary), then the interior ones. Ghosts occupy
// [NLocal, NLocal+NGhost), grouped by owner in NeighborRanks order: group i
// starts at GhostBase[i] and is, index for index, the Shown list of the pair
// table NeighborRanks[i] keeps with this rank (pairs.go). Each group ascends
// in global id. So v is a boundary vertex iff v < NumBoundary, a ghost's owner
// and its pair-local index are one offset away, and every per-vertex index
// over the boundary (CrossOff, ShownOff, EdgeAt) ends where the boundary does.
//
// The CSR rows cover owned vertices only; columns may point at ghosts, and
// every row keeps the global graph's order: ascending global id. The matching
// kernels read that order: their candidate-mate scan gives a weight tie to
// the earlier arc, which is the smaller global id, so no rank loads a
// neighbor's id to break it (Validate checks the order). The graph's Δ, every
// matching's first candidates (Preferred), the cross-edge counts that end the
// matching's outer loop, the boundary rows' arcs to ghosts (CrossOff/CrossPos)
// and the pair tables are all built here, in one pass over the rows.
package dgraph

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/partition"
)

// DistGraph is one rank's share of a distributed graph.
type DistGraph struct {
	Rank int // owning rank
	P    int // total ranks

	GlobalN         int64 // vertices in the whole graph
	GlobalEdges     int64 // undirected edges in the whole graph
	GlobalMaxDegree int   // Δ of the whole graph, the same on every share

	NLocal int // owned vertices
	NGhost int // distinct remote endpoints of cross edges
	// NumBoundary counts the owned vertices with at least one ghost
	// neighbor; they are the owned vertices [0, NumBoundary).
	NumBoundary int

	// GlobalID maps local index -> global id, for owned vertices and ghosts.
	GlobalID []int64

	// CSR over owned vertices; Adj holds local indices (owned or ghost).
	Xadj []int64
	Adj  []int32
	W    []float64

	// Preferred is, per owned vertex, the position in its row of the arc
	// graph.BestArc picks with nothing gone (-1: isolated): its first candidate.
	Preferred []int32
	// CrossArcs counts arcs from owned vertices to ghosts (each cross edge
	// once per side).
	CrossArcs int64
	// CrossOff/CrossPos is a CSR over the boundary vertices: the positions
	// within each row, ascending, of its arcs to ghosts.
	CrossOff []int32
	CrossPos []int32

	// NeighborRanks lists the distinct ranks owning at least one ghost,
	// ascending — the "neighboring processors" the paper's NEW coloring
	// variant restricts communication to.
	NeighborRanks []int
	// GhostBase[i] is the local index of the first ghost NeighborRanks[i]
	// owns; GhostBase[len(NeighborRanks)] is NLocal+NGhost.
	GhostBase []int32

	// Pairs[i] is this share's half of the pair table it keeps with
	// NeighborRanks[i]; EdgeAt and ShownOff/ShownList are the tables read
	// the other way, from a local index to its pair-local one. See pairs.go.
	Pairs []Pair
	// EdgeAt is aligned with the boundary rows, Adj[:Xadj[NumBoundary]]: for
	// an arc to a ghost, the index of that cross edge in the pair table kept
	// with the ghost's owner. Entries of arcs between owned vertices are zero
	// and mean nothing.
	EdgeAt []int32
	// ShownOff/ShownList is a CSR over the boundary vertices: under which
	// index each is shown to each rank owning a neighbor of it.
	ShownOff  []int32
	ShownList []ShownAt
}

// Degree reports the degree of an owned vertex (cross edges included).
func (d *DistGraph) Degree(v int32) int { return int(d.Xadj[v+1] - d.Xadj[v]) }

// Neighbors returns the local-index neighbor list of owned vertex v.
func (d *DistGraph) Neighbors(v int32) []int32 { return d.Adj[d.Xadj[v]:d.Xadj[v+1]] }

// CrossArcsOf returns the row positions of boundary vertex v's arcs to
// ghosts. An interior vertex (v ≥ NumBoundary) has none and no entry.
func (d *DistGraph) CrossArcsOf(v int32) []int32 { return d.CrossPos[d.CrossOff[v]:d.CrossOff[v+1]] }

// Weights returns the arc weights aligned with Neighbors(v); nil if the
// graph is unweighted.
func (d *DistGraph) Weights(v int32) []float64 {
	if d.W == nil {
		return nil
	}
	return d.W[d.Xadj[v]:d.Xadj[v+1]]
}

// Weight reports the weight of arc i, treating unweighted graphs as unit.
func (d *DistGraph) Weight(i int64) float64 {
	if d.W == nil {
		return 1
	}
	return d.W[i]
}

// IsGhost reports whether local index v refers to a ghost vertex.
func (d *DistGraph) IsGhost(v int32) bool { return int(v) >= d.NLocal }

// NeighborOf returns, for ghost v, the index i in NeighborRanks of its
// owner: v is the vertex at index v - GhostBase[i] of the owner's Shown list
// for this rank.
func (d *DistGraph) NeighborOf(v int32) int {
	lo, hi := 0, len(d.GhostBase)-1 // GhostBase[lo] ≤ v < GhostBase[hi]
	for hi-lo > 1 {
		if m := int(uint(lo+hi) >> 1); d.GhostBase[m] <= v {
			lo = m
		} else {
			hi = m
		}
	}
	return lo
}

// OwnerOf reports the rank owning the vertex at local index v.
func (d *DistGraph) OwnerOf(v int32) int {
	if d.IsGhost(v) {
		return d.NeighborRanks[d.NeighborOf(v)]
	}
	return d.Rank
}

// LocalOf resolves a global id to a local index (owned or ghost): a binary
// search of each ascending run of ids — the boundary vertices, the interior
// ones, each owner's ghosts. Any id that is in none — negative, beyond
// GlobalN, or simply not on this rank — yields (0, false). Nothing on a
// kernel's path asks: records on the wire carry pair-local indices
// (pairs.go), not global ids.
func (d *DistGraph) LocalOf(global int64) (int32, bool) {
	lo := 0
	for k := -1; k < len(d.GhostBase); k++ { // the runs end at NumBoundary and at each GhostBase
		hi := d.NumBoundary
		if k >= 0 {
			hi = int(d.GhostBase[k])
		}
		if i, ok := slices.BinarySearch(d.GlobalID[lo:hi], global); ok {
			return int32(lo + i), true
		}
		lo = hi
	}
	return 0, false
}

// GlobalOf resolves a local index to its global id.
func (d *DistGraph) GlobalOf(v int32) int64 { return d.GlobalID[v] }

// Bytes estimates the resident size of the share — the unit a holder of
// shares budgets them in, as ingest.GraphBytes is for whole graphs.
func (d *DistGraph) Bytes() int64 {
	n := int64(len(d.GlobalID))*8 + int64(len(d.Xadj))*8 + int64(len(d.Adj))*4 + int64(len(d.W))*8 +
		int64(len(d.Preferred))*4 + int64(len(d.CrossOff))*4 + int64(len(d.CrossPos))*4 +
		int64(len(d.NeighborRanks))*8 + int64(len(d.GhostBase))*4 + int64(len(d.EdgeAt))*4 +
		int64(len(d.ShownOff))*4 + int64(len(d.ShownList))*8 + int64(len(d.Pairs))*int64(unsafe.Sizeof(Pair{}))
	for _, p := range d.Pairs {
		n += int64(len(p.Edges))*8 + int64(len(p.Shown))*4
	}
	return n
}

// Validate checks the structural invariants of the distributed view. It
// refuses a malformed share with an error, whatever its arrays hold: every
// length is checked before anything is indexed through it.
func (d *DistGraph) Validate() error {
	if d.P < 1 || d.Rank < 0 || d.Rank >= d.P {
		return fmt.Errorf("dgraph: rank %d of %d", d.Rank, d.P)
	}
	if d.NLocal < 0 || d.NGhost < 0 || d.NumBoundary < 0 || d.NumBoundary > d.NLocal {
		return fmt.Errorf("dgraph: counts NLocal=%d NGhost=%d NumBoundary=%d", d.NLocal, d.NGhost, d.NumBoundary)
	}
	if int64(len(d.Adj)) > 2*d.GlobalEdges {
		return fmt.Errorf("dgraph: %d arcs, more than the whole graph's %d edges hold", len(d.Adj), d.GlobalEdges)
	}
	np := len(d.NeighborRanks)
	for _, l := range []struct {
		name      string
		got, want int
	}{
		{"GlobalID", len(d.GlobalID), d.NLocal + d.NGhost},
		{"Xadj", len(d.Xadj), d.NLocal + 1},
		{"Preferred", len(d.Preferred), d.NLocal},
		{"CrossOff", len(d.CrossOff), d.NumBoundary + 1},
		{"GhostBase", len(d.GhostBase), np + 1},
	} {
		if l.got != l.want {
			return fmt.Errorf("dgraph: %s has %d entries, want %d", l.name, l.got, l.want)
		}
	}
	if d.Xadj[0] != 0 || d.Xadj[d.NLocal] != int64(len(d.Adj)) || !slices.IsSorted(d.Xadj) {
		return fmt.Errorf("dgraph: Xadj does not rise from 0 to the %d arcs of Adj", len(d.Adj))
	}
	if len(d.W) != 0 && len(d.W) != len(d.Adj) {
		return fmt.Errorf("dgraph: W has %d weights for %d arcs", len(d.W), len(d.Adj))
	}
	if !ascending(d.NeighborRanks) || slices.Contains(d.NeighborRanks, d.Rank) ||
		(np > 0 && (d.NeighborRanks[0] < 0 || d.NeighborRanks[np-1] >= d.P)) {
		return fmt.Errorf("dgraph: NeighborRanks %v not ascending ranks other than %d of %d", d.NeighborRanks, d.Rank, d.P)
	}
	// Every neighbor owns a group of ghosts, and the groups tile the ghosts.
	if d.GhostBase[0] != int32(d.NLocal) || int(d.GhostBase[np]) != d.NLocal+d.NGhost || !ascending(d.GhostBase) {
		return fmt.Errorf("dgraph: GhostBase %v does not cut [%d, %d) into one non-empty group per neighbor", d.GhostBase, d.NLocal, d.NLocal+d.NGhost)
	}
	runs := append([]int32{0, int32(d.NumBoundary)}, d.GhostBase...)
	for i := 1; i < len(runs); i++ {
		if !ascending(d.GlobalID[runs[i-1]:runs[i]]) {
			return fmt.Errorf("dgraph: global ids of locals [%d, %d) not ascending", runs[i-1], runs[i])
		}
	}
	for l, g := range d.GlobalID {
		if g < 0 || g >= d.GlobalN {
			return fmt.Errorf("dgraph: local %d has global id %d outside [0, %d)", l, g, d.GlobalN)
		}
		if got, ok := d.LocalOf(g); !ok || int(got) != l { // an id held twice
			return fmt.Errorf("dgraph: LocalOf(%d) = (%d, %v), want local %d", g, got, ok, l)
		}
	}
	// The rows, and with them the boundary prefix and the cross-arc index:
	// CrossPos is each boundary row filtered for its arcs to ghosts.
	var cross int64
	for v := 0; v < d.NLocal; v++ {
		row := d.Neighbors(int32(v))
		if len(row) > d.GlobalMaxDegree {
			return fmt.Errorf("dgraph: vertex %d has degree %d, above GlobalMaxDegree %d", v, len(row), d.GlobalMaxDegree)
		}
		from := cross
		for k, u := range row {
			if u < 0 || int(u) >= len(d.GlobalID) {
				return fmt.Errorf("dgraph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if k > 0 && d.GlobalID[row[k-1]] >= d.GlobalID[u] {
				return fmt.Errorf("dgraph: row of vertex %d not ascending in global id at %d", v, k)
			}
			if !d.IsGhost(u) {
				continue
			}
			if cross >= int64(len(d.CrossPos)) || d.CrossPos[cross] != int32(k) {
				return fmt.Errorf("dgraph: cross-arc index misses arc %d of vertex %d, to a ghost", k, v)
			}
			cross++
		}
		if (v < d.NumBoundary) != (cross > from) {
			return fmt.Errorf("dgraph: vertex %d has %d ghost neighbors, NumBoundary is %d", v, cross-from, d.NumBoundary)
		}
		if v < d.NumBoundary && int64(d.CrossOff[v+1]) != cross {
			return fmt.Errorf("dgraph: CrossOff of vertex %d ends at %d, its arcs to ghosts at %d", v, d.CrossOff[v+1], cross)
		}
	}
	if d.CrossOff[0] != 0 || cross != d.CrossArcs || int64(len(d.CrossPos)) != cross {
		return fmt.Errorf("dgraph: CrossArcs %d, CrossPos %d arcs from %d, the rows have %d", d.CrossArcs, len(d.CrossPos), d.CrossOff[0], cross)
	}
	if !slices.Equal(d.Preferred, d.preferred(make([]bool, len(d.GlobalID)))) {
		return fmt.Errorf("dgraph: Preferred is not what the scan of each row picks")
	}
	return d.validatePairs()
}

// Distribute splits a global graph over p ranks according to part, producing
// every rank's DistGraph. Since the runtime is in-process, ranks typically
// index into the returned slice rather than deserializing anything.
//
// The build works over dense arrays indexed by global id and by rank — each
// vertex's local index on the rank being built, each rank's ghost cursor —
// so that an arc is translated by one array read instead of a hash lookup.
// The arrays are per call: concurrent calls on the same (g, part) share
// nothing.
func Distribute(g *graph.Graph, part *partition.Partition) ([]*DistGraph, error) {
	if err := part.Validate(g); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	owned := partition.PartVertices(part) // ascending ids per part
	at := make([]int32, n)                // scratch of buildLocal
	slot := make([]int32, part.P)         // scratch of buildLocal
	none := make([]bool, n)               // no local index is gone, for preferred
	var ghosts []graph.Vertex             // the rank being built's ghosts, unsorted and then sorted
	maxDeg := g.MaxDegree()
	out := make([]*DistGraph, part.P)
	for rank := range out {
		out[rank], ghosts = buildLocal(g, part, rank, owned[rank], at, slot, none, ghosts[:0])
		out[rank].GlobalMaxDegree = maxDeg
	}
	return out, nil
}

// Whole views g as the one share of a ghost-free world: every vertex owned
// and interior, local index = vertex id, the rows g's own (aliased, not
// copied) and Preferred filled by the same scan Distribute runs. It is the
// matching kernel's sequential input, not a share Validate accepts: it
// carries no GlobalID, cross-arc index or pair table, having nothing to
// exchange.
func Whole(g *graph.Graph) *DistGraph {
	n := g.NumVertices()
	d := &DistGraph{P: 1, GlobalN: int64(n), GlobalEdges: g.NumEdges(), NLocal: n, Xadj: g.Xadj, Adj: g.Adj, W: g.W}
	d.Preferred = d.preferred(make([]bool, n))
	return d
}

// buildLocal builds one rank's share. at and slot are scratch, all zero on
// entry and on return: at, by global id, first counts each ghost's owned
// neighbors and marks the boundary vertices, then holds local indices; slot,
// by rank, is first a ghost count, then a ghost cursor, then a pair index.
// none is all false and never written; ghosts is empty scratch, returned with
// what the build grew it to.
func buildLocal(g *graph.Graph, part *partition.Partition, rank int, owned []graph.Vertex, at, slot []int32, none []bool, ghosts []graph.Vertex) (*DistGraph, []graph.Vertex) {
	d := &DistGraph{
		Rank:        rank,
		P:           part.P,
		GlobalN:     int64(g.NumVertices()),
		GlobalEdges: g.NumEdges(),
		NLocal:      len(owned),
	}
	// Discover ghosts — each remote endpoint once, counting its owned
	// neighbors in at — and mark the boundary vertices (at 1).
	var arcs, boundaryArcs int64
	for _, v := range owned {
		adj := g.Neighbors(v)
		arcs += int64(len(adj))
		var cross int64
		for _, u := range adj {
			if part.Part[u] != int32(rank) {
				if at[u] == 0 {
					ghosts = append(ghosts, u)
				}
				at[u]++
				cross++
			}
		}
		if cross > 0 {
			at[v] = 1
			d.NumBoundary++
			boundaryArcs += int64(len(adj))
			d.CrossArcs += cross
		}
	}
	// Owned local indices: the boundary vertices first, each group ascending.
	d.NGhost = len(ghosts)
	d.GlobalID = make([]int64, d.NLocal+d.NGhost)
	next := [2]int32{int32(d.NumBoundary), 0} // the interior's and the boundary's cursor
	for _, v := range owned {
		b := at[v]
		at[v] = next[b]
		next[b]++
		d.GlobalID[at[v]] = int64(v)
	}
	// Ghost local indices: grouped by owner, ascending rank, each group
	// ascending. A ghost's owned-neighbor count moves to deg.
	slices.Sort(ghosts)
	for _, u := range ghosts {
		slot[part.Part[u]]++
	}
	base := int32(d.NLocal)
	for r, c := range slot {
		if c > 0 {
			d.NeighborRanks = append(d.NeighborRanks, r)
			d.GhostBase = append(d.GhostBase, base)
			slot[r], base = base, base+c
		}
	}
	d.GhostBase = append(d.GhostBase, base)
	deg := make([]int32, d.NGhost)
	for _, u := range ghosts {
		l := slot[part.Part[u]]
		slot[part.Part[u]]++
		deg[l-int32(d.NLocal)], at[u] = at[u], l
		d.GlobalID[l] = int64(u)
	}
	for i, r := range d.NeighborRanks {
		slot[r] = int32(i)
	}
	// CSR rows in local order — the boundary rows, which also fill the
	// cross-arc index and the pair tables, then the interior ones.
	d.Xadj = make([]int64, d.NLocal+1)
	d.Adj = make([]int32, arcs)
	if g.W != nil {
		d.W = make([]float64, arcs)
	}
	d.CrossOff = make([]int32, d.NumBoundary+1)
	d.CrossPos = make([]int32, 0, d.CrossArcs)
	addCross := d.newPairs(deg, boundaryArcs)
	var pos int64
	for l, gid := range d.GlobalID[:d.NLocal] {
		v := graph.Vertex(gid)
		adj := g.Neighbors(v)
		row := d.Adj[pos : pos+int64(len(adj))]
		for k, u := range adj {
			row[k] = at[u]
		}
		if l < d.NumBoundary {
			for k, u := range row {
				if d.IsGhost(u) {
					d.CrossPos = append(d.CrossPos, int32(k))
					addCross(int32(l), u, slot[part.Part[adj[k]]], pos+int64(k))
				}
			}
			d.CrossOff[l+1] = int32(len(d.CrossPos))
		}
		pos += int64(len(adj))
		d.Xadj[l+1] = pos
	}
	// Owned vertices with consecutive global ids have adjacent rows in g.W
	// as in d.W: the weights are copied once per such run.
	for l := 0; d.W != nil && l < d.NLocal; {
		e := l + 1
		for e < d.NLocal && d.GlobalID[e] == d.GlobalID[e-1]+1 {
			e++
		}
		copy(d.W[d.Xadj[l]:d.Xadj[e]], g.W[g.Xadj[d.GlobalID[l]]:])
		l = e
	}
	for _, v := range owned {
		at[v] = 0
	}
	for _, u := range ghosts {
		at[u] = 0
	}
	for _, r := range d.NeighborRanks {
		slot[r] = 0
	}
	d.Preferred = d.preferred(none)
	return d, ghosts
}

// preferred scans each owned row with none (all false) marking nothing gone.
func (d *DistGraph) preferred(none []bool) []int32 {
	first := make([]int32, d.NLocal)
	for v := range first {
		first[v] = int32(graph.BestArc(d.Neighbors(int32(v)), d.Weights(int32(v)), none))
	}
	return first
}
