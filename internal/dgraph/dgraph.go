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
// at ghosts. Per-vertex classification into interior and boundary, the
// per-neighbor-rank send lists, and the cross-edge counts that control the
// matching algorithm's outer-loop termination are all precomputed here.
package dgraph

import (
	"fmt"
	"sort"

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

	// IsBoundary marks owned vertices with at least one ghost neighbor.
	IsBoundary []bool
	// NumBoundary counts owned boundary vertices.
	NumBoundary int
	// CrossArcs counts arcs from owned vertices to ghosts (each cross edge
	// once per side).
	CrossArcs int64

	// NeighborRanks lists the distinct ranks owning at least one ghost,
	// ascending — the "neighboring processors" the paper's NEW coloring
	// variant restricts communication to.
	NeighborRanks []int

	globalToLocal map[int64]int32
}

// Degree reports the degree of an owned vertex (cross edges included).
func (d *DistGraph) Degree(v int32) int { return int(d.Xadj[v+1] - d.Xadj[v]) }

// Neighbors returns the local-index neighbor list of owned vertex v.
func (d *DistGraph) Neighbors(v int32) []int32 { return d.Adj[d.Xadj[v]:d.Xadj[v+1]] }

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

// LocalOf resolves a global id to a local index (owned or ghost).
func (d *DistGraph) LocalOf(global int64) (int32, bool) {
	l, ok := d.globalToLocal[global]
	return l, ok
}

// GlobalOf resolves a local index to its global id.
func (d *DistGraph) GlobalOf(v int32) int64 { return d.GlobalID[v] }

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
		for _, u := range d.Neighbors(int32(v)) {
			if u < 0 || int(u) >= d.NLocal+d.NGhost {
				return fmt.Errorf("dgraph: vertex %d has out-of-range neighbor %d", v, u)
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
	for g, l := range d.globalToLocal {
		if d.GlobalID[l] != g {
			return fmt.Errorf("dgraph: globalToLocal inconsistent at %d", g)
		}
	}
	return nil
}

// Distribute splits a global graph over p ranks according to part, producing
// every rank's DistGraph. Since the runtime is in-process, ranks typically
// index into the returned slice rather than deserializing anything.
func Distribute(g *graph.Graph, part *partition.Partition) ([]*DistGraph, error) {
	if err := part.Validate(g); err != nil {
		return nil, err
	}
	p := part.P
	owned := partition.PartVertices(part) // ascending ids per part
	out := make([]*DistGraph, p)
	for rank := 0; rank < p; rank++ {
		d, err := buildLocal(g, part, rank, owned[rank])
		if err != nil {
			return nil, err
		}
		out[rank] = d
	}
	return out, nil
}

func buildLocal(g *graph.Graph, part *partition.Partition, rank int, owned []graph.Vertex) (*DistGraph, error) {
	d := &DistGraph{
		Rank:        rank,
		P:           part.P,
		GlobalN:     int64(g.NumVertices()),
		GlobalEdges: g.NumEdges(),
		NLocal:      len(owned),
	}
	d.globalToLocal = make(map[int64]int32, len(owned)*2)
	d.GlobalID = make([]int64, len(owned), len(owned)*2)
	for i, v := range owned {
		d.GlobalID[i] = int64(v)
		d.globalToLocal[int64(v)] = int32(i)
	}
	// Discover ghosts.
	ghostSet := make(map[int64]int32) // global id -> owner
	for _, v := range owned {
		for _, u := range g.Neighbors(v) {
			if part.Part[u] != int32(rank) {
				ghostSet[int64(u)] = part.Part[u]
			}
		}
	}
	ghosts := make([]int64, 0, len(ghostSet))
	for gid := range ghostSet {
		ghosts = append(ghosts, gid)
	}
	sort.Slice(ghosts, func(i, j int) bool { return ghosts[i] < ghosts[j] })
	d.NGhost = len(ghosts)
	d.GhostOwner = make([]int32, len(ghosts))
	neighborRanks := map[int]bool{}
	for i, gid := range ghosts {
		d.GlobalID = append(d.GlobalID, gid)
		d.globalToLocal[gid] = int32(d.NLocal + i)
		d.GhostOwner[i] = ghostSet[gid]
		neighborRanks[int(ghostSet[gid])] = true
	}
	for r := range neighborRanks {
		d.NeighborRanks = append(d.NeighborRanks, r)
	}
	sort.Ints(d.NeighborRanks)
	// CSR rows for owned vertices.
	d.Xadj = make([]int64, d.NLocal+1)
	var arcs int64
	for i, v := range owned {
		arcs += int64(g.Degree(v))
		d.Xadj[i+1] = arcs
	}
	d.Adj = make([]int32, arcs)
	if g.W != nil {
		d.W = make([]float64, arcs)
	}
	d.IsBoundary = make([]bool, d.NLocal)
	for i, v := range owned {
		pos := d.Xadj[i]
		adj := g.Neighbors(v)
		for k, u := range adj {
			lu := d.globalToLocal[int64(u)]
			d.Adj[pos] = lu
			if d.W != nil {
				d.W[pos] = g.W[g.Xadj[v]+int64(k)]
			}
			if d.IsGhost(lu) {
				d.IsBoundary[i] = true
				d.CrossArcs++
			}
			pos++
		}
	}
	for _, b := range d.IsBoundary {
		if b {
			d.NumBoundary++
		}
	}
	return d, nil
}
