// Package dgraph implements the distributed graph representation the paper's
// algorithms operate on: each rank owns a subset of the vertices, stores the
// adjacency of its owned vertices, and represents cross edges through ghost
// vertices — "a boundary vertex u is stored on its corresponding processor
// p(u) as well as on every other processor p(v) such that (u, v) is a cross
// edge" (Section 3.3).
//
// Local indices are dense: owned vertices occupy [0, NLocal) in ascending
// global-id order, ghosts occupy [NLocal, NLocal+NGhost), also in ascending
// global-id order. The CSR rows cover owned vertices only; columns may point
// at ghosts, and every row keeps the global graph's order: ascending global
// id. The matching kernels read that order: their candidate-mate scan gives a
// weight tie to the earlier arc, which is the smaller global id, so no rank
// loads a neighbor's id to break it (Validate checks the order). Interior and
// boundary vertices, every matching's first candidates (Preferred), the
// cross-edge counts that end the matching's outer loop, each row's arcs to
// ghosts (CrossOff/CrossPos), and the pair tables (pairs.go) under which two
// neighboring ranks name their shared cross edges and boundary vertices on
// the wire are all precomputed here.
package dgraph

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
)

// DistGraph is one rank's share of a distributed graph.
type DistGraph struct {
	Rank int // owning rank
	P    int // total ranks

	GlobalN     int64 // vertices in the whole graph
	GlobalEdges int64 // undirected edges in the whole graph

	NLocal int // owned vertices
	NGhost int // distinct remote endpoints of cross edges

	// GlobalID maps local index -> global id, for owned vertices and ghosts.
	GlobalID []int64
	// GhostOwner maps ghost slot (local index - NLocal) -> owning rank.
	GhostOwner []int32

	// CSR over owned vertices; Adj holds local indices (owned or ghost).
	Xadj []int64
	Adj  []int32
	W    []float64

	// Preferred is, per owned vertex, the position in its row of the arc
	// graph.BestArc picks with nothing gone (-1: isolated): its first candidate.
	Preferred []int32
	// IsBoundary marks owned vertices with at least one ghost neighbor.
	IsBoundary []bool
	// NumBoundary counts owned boundary vertices.
	NumBoundary int
	// CrossArcs counts arcs from owned vertices to ghosts (each cross edge
	// once per side).
	CrossArcs int64
	// CrossOff/CrossPos is a CSR over owned vertices: the positions within
	// each row, ascending, of its arcs to ghosts. An interior vertex has none.
	CrossOff []int32
	CrossPos []int32

	// NeighborRanks lists the distinct ranks owning at least one ghost,
	// ascending — the "neighboring processors" the paper's NEW coloring
	// variant restricts communication to.
	NeighborRanks []int

	// Pairs[i] is this share's half of the pair table it keeps with
	// NeighborRanks[i]; EdgeAt, GhostAt and ShownOff/ShownList are the tables
	// read the other way, from a local index to its pair-local one. See
	// pairs.go.
	Pairs []Pair
	// EdgeAt is aligned with Adj: for an arc to a ghost, the index of that
	// cross edge in the pair table kept with the ghost's owner. Entries of
	// interior arcs are zero and mean nothing.
	EdgeAt []int32
	// GhostAt maps ghost slot -> the ghost's index in its owner's Ghosts.
	GhostAt []int32
	// ShownOff/ShownList is a CSR over owned vertices: under which index each
	// boundary vertex is shown to each rank owning a neighbor of it.
	ShownOff  []int32
	ShownList []ShownAt
}

// Degree reports the degree of an owned vertex (cross edges included).
func (d *DistGraph) Degree(v int32) int { return int(d.Xadj[v+1] - d.Xadj[v]) }

// Neighbors returns the local-index neighbor list of owned vertex v.
func (d *DistGraph) Neighbors(v int32) []int32 { return d.Adj[d.Xadj[v]:d.Xadj[v+1]] }

// CrossArcsOf returns the row positions of owned vertex v's arcs to ghosts.
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

// OwnerOf reports the rank owning the vertex at local index v.
func (d *DistGraph) OwnerOf(v int32) int {
	if d.IsGhost(v) {
		return int(d.GhostOwner[int(v)-d.NLocal])
	}
	return d.Rank
}

// LocalOf resolves a global id to a local index (owned or ghost): a binary
// search of the owned ids, then of the ghost ids. Any id that is neither —
// negative, beyond GlobalN, or simply not on this rank — yields (0, false).
// Nothing on a kernel's path asks: records on the wire carry pair-local
// indices (pairs.go), not global ids.
func (d *DistGraph) LocalOf(global int64) (int32, bool) {
	if l, ok := slices.BinarySearch(d.GlobalID[:d.NLocal], global); ok {
		return int32(l), true
	}
	if l, ok := slices.BinarySearch(d.GlobalID[d.NLocal:], global); ok {
		return int32(d.NLocal + l), true
	}
	return 0, false
}

// GlobalOf resolves a local index to its global id.
func (d *DistGraph) GlobalOf(v int32) int64 { return d.GlobalID[v] }

// Bytes estimates the resident size of the share — the unit a holder of
// shares budgets them in, as ingest.GraphBytes is for whole graphs.
func (d *DistGraph) Bytes() int64 {
	n := int64(len(d.GlobalID))*8 + int64(len(d.GhostOwner))*4 +
		int64(len(d.Xadj))*8 + int64(len(d.Adj))*4 + int64(len(d.W))*8 +
		int64(len(d.Preferred))*4 + int64(len(d.IsBoundary)) + int64(len(d.CrossOff))*4 + int64(len(d.CrossPos))*4 +
		int64(len(d.NeighborRanks))*8 + int64(len(d.EdgeAt))*4 + int64(len(d.GhostAt))*4 +
		int64(len(d.ShownOff))*4 + int64(len(d.ShownList))*8
	for _, p := range d.Pairs {
		n += int64(len(p.Edges))*8 + int64(len(p.Shown))*4 + int64(len(p.Ghosts))*4
	}
	return n
}

// Validate checks the structural invariants of the distributed view.
func (d *DistGraph) Validate() error {
	if d.NLocal < 0 || d.NGhost < 0 {
		return fmt.Errorf("dgraph: negative counts NLocal=%d NGhost=%d", d.NLocal, d.NGhost)
	}
	if len(d.GlobalID) != d.NLocal+d.NGhost {
		return fmt.Errorf("dgraph: GlobalID len %d, want %d", len(d.GlobalID), d.NLocal+d.NGhost)
	}
	if len(d.Xadj) != d.NLocal+1 {
		return fmt.Errorf("dgraph: Xadj len %d, want %d", len(d.Xadj), d.NLocal+1)
	}
	if len(d.GhostOwner) != d.NGhost {
		return fmt.Errorf("dgraph: GhostOwner len %d, want %d", len(d.GhostOwner), d.NGhost)
	}
	for i := 1; i < d.NLocal; i++ {
		if d.GlobalID[i-1] >= d.GlobalID[i] {
			return fmt.Errorf("dgraph: owned global ids not ascending at %d", i)
		}
	}
	for i := d.NLocal + 1; i < len(d.GlobalID); i++ {
		if d.GlobalID[i-1] >= d.GlobalID[i] {
			return fmt.Errorf("dgraph: ghost global ids not ascending at %d", i)
		}
	}
	var cross int64
	for v := 0; v < d.NLocal; v++ {
		boundary := false
		row := d.Neighbors(int32(v))
		for k, u := range row {
			if u < 0 || int(u) >= d.NLocal+d.NGhost {
				return fmt.Errorf("dgraph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if k > 0 && d.GlobalID[row[k-1]] >= d.GlobalID[u] {
				return fmt.Errorf("dgraph: row of vertex %d not ascending in global id at %d", v, k)
			}
			if d.IsGhost(u) {
				boundary = true
				cross++
			}
		}
		if boundary != d.IsBoundary[v] {
			return fmt.Errorf("dgraph: vertex %d boundary flag %v, computed %v", v, d.IsBoundary[v], boundary)
		}
	}
	if cross != d.CrossArcs {
		return fmt.Errorf("dgraph: CrossArcs %d, computed %d", d.CrossArcs, cross)
	}
	if err := d.validateCross(); err != nil {
		return err
	}
	if !slices.Equal(d.Preferred, d.preferred(make([]bool, len(d.GlobalID)))) {
		return fmt.Errorf("dgraph: Preferred is not what the scan of each row picks")
	}
	for l, g := range d.GlobalID {
		if g < 0 || g >= d.GlobalN {
			return fmt.Errorf("dgraph: local %d has global id %d outside [0, %d)", l, g, d.GlobalN)
		}
		if got, ok := d.LocalOf(g); !ok || int(got) != l { // an id both owned and ghost
			return fmt.Errorf("dgraph: LocalOf(%d) = (%d, %v), want local %d", g, got, ok, l)
		}
	}
	return d.validatePairs()
}

// Distribute splits a global graph over p ranks according to part, producing
// every rank's DistGraph. Since the runtime is in-process, ranks typically
// index into the returned slice rather than deserializing anything.
//
// The build works over dense arrays indexed by global id — every vertex's
// position within its part, and the current rank's ghost slots — so that an
// arc is translated by two array reads instead of a hash lookup. The arrays
// are per call: concurrent calls on the same (g, part) share nothing.
func Distribute(g *graph.Graph, part *partition.Partition) ([]*DistGraph, error) {
	if err := part.Validate(g); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	owned := partition.PartVertices(part) // ascending ids per part
	local := make([]int32, n)             // every vertex's index on its owner
	for _, vs := range owned {
		for i, v := range vs {
			local[v] = int32(i)
		}
	}
	ghostAt := make([]int32, n)   // local index + 1 of a ghost of the rank being built, else 0
	isNbr := make([]bool, part.P) // ranks owning a ghost of the rank being built
	none := make([]bool, n)       // no local index is gone, for preferred
	var ghosts []graph.Vertex     // the rank being built's ghosts, unsorted and then sorted
	out := make([]*DistGraph, part.P)
	for rank := range out {
		out[rank], ghosts = buildLocal(g, part, rank, owned[rank], local, ghostAt, isNbr, none, ghosts[:0])
	}
	return out, nil
}

// buildLocal builds one rank's share. ghostAt and isNbr are scratch: all
// zero on entry and on return; none is all false and never written; ghosts
// is empty scratch, returned with what the build grew it to.
func buildLocal(g *graph.Graph, part *partition.Partition, rank int, owned []graph.Vertex, local, ghostAt []int32, isNbr, none []bool, ghosts []graph.Vertex) (*DistGraph, []graph.Vertex) {
	d := &DistGraph{
		Rank:        rank,
		P:           part.P,
		GlobalN:     int64(g.NumVertices()),
		GlobalEdges: g.NumEdges(),
		NLocal:      len(owned),
	}
	// Discover ghosts: each remote endpoint once — counting its owned
	// neighbors in ghostAt meanwhile — then ascending.
	var arcs, crossArcs int64
	for _, v := range owned {
		adj := g.Neighbors(v)
		arcs += int64(len(adj))
		for _, u := range adj {
			if part.Part[u] != int32(rank) {
				if ghostAt[u] == 0 {
					ghosts = append(ghosts, u)
				}
				ghostAt[u]++
				crossArcs++
			}
		}
	}
	slices.Sort(ghosts)
	d.NGhost = len(ghosts)
	d.GlobalID = make([]int64, d.NLocal+d.NGhost)
	for i, v := range owned {
		d.GlobalID[i] = int64(v)
	}
	d.GhostOwner = make([]int32, d.NGhost)
	deg := make([]int32, d.NGhost)
	for i, u := range ghosts {
		d.GlobalID[d.NLocal+i] = int64(u)
		deg[i] = ghostAt[u]
		ghostAt[u] = int32(d.NLocal+i) + 1
		d.GhostOwner[i] = part.Part[u]
		isNbr[part.Part[u]] = true
	}
	for r, is := range isNbr {
		if is {
			d.NeighborRanks = append(d.NeighborRanks, r)
			isNbr[r] = false
		}
	}
	// CSR rows for owned vertices.
	d.Xadj = make([]int64, d.NLocal+1)
	d.Adj = make([]int32, arcs)
	if g.W != nil {
		d.W = make([]float64, arcs)
	}
	d.IsBoundary = make([]bool, d.NLocal)
	d.CrossArcs = crossArcs
	d.CrossOff = make([]int32, d.NLocal+1)
	d.CrossPos = make([]int32, 0, crossArcs)
	var pos int64
	for i, v := range owned {
		adj := g.Neighbors(v)
		row := d.Adj[pos : pos+int64(len(adj))]
		for k, u := range adj {
			if gl := ghostAt[u]; gl != 0 {
				row[k] = gl - 1
				d.CrossPos = append(d.CrossPos, int32(k))
			} else {
				row[k] = local[u]
			}
		}
		d.CrossOff[i+1] = int32(len(d.CrossPos))
		if d.CrossOff[i+1] > d.CrossOff[i] {
			d.IsBoundary[i] = true
			d.NumBoundary++
		}
		if d.W != nil {
			copy(d.W[pos:], g.W[g.Xadj[v]:g.Xadj[v+1]])
		}
		pos += int64(len(adj))
		d.Xadj[i+1] = pos
	}
	for _, u := range ghosts {
		ghostAt[u] = 0
	}
	d.Preferred = d.preferred(none)
	d.buildPairs(deg)
	return d, ghosts
}

// validateCross holds CrossOff/CrossPos to a filter of each row for its arcs
// to ghosts.
func (d *DistGraph) validateCross() error {
	if len(d.CrossOff) != d.NLocal+1 || d.CrossOff[0] != 0 || int64(len(d.CrossPos)) != d.CrossArcs {
		return fmt.Errorf("dgraph: cross-arc index sized %d rows / %d arcs, want %d / %d", len(d.CrossOff)-1, len(d.CrossPos), d.NLocal, d.CrossArcs)
	}
	var next int32
	for v := int32(0); int(v) < d.NLocal; v++ {
		for k, u := range d.Neighbors(v) {
			if !d.IsGhost(u) {
				continue
			}
			if next >= d.CrossOff[v+1] || d.CrossPos[next] != int32(k) {
				return fmt.Errorf("dgraph: cross-arc index of vertex %d misses its arc %d to a ghost", v, k)
			}
			next++
		}
		if next != d.CrossOff[v+1] {
			return fmt.Errorf("dgraph: cross-arc index of vertex %d lists %d arcs, its row has %d to ghosts", v, d.CrossOff[v+1]-d.CrossOff[v], next-d.CrossOff[v])
		}
	}
	return nil
}

// preferred scans each owned row with none (all false) marking nothing gone.
func (d *DistGraph) preferred(none []bool) []int32 {
	first := make([]int32, d.NLocal)
	for v := range first {
		first[v] = int32(graph.BestArc(d.Neighbors(int32(v)), d.Weights(int32(v)), none))
	}
	return first
}
