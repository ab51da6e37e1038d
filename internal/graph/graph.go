// Package graph provides the in-memory graph representation shared by every
// other package in this repository: a compressed sparse row (CSR) adjacency
// structure with per-edge floating-point weights.
//
// Graphs are simple (no self loops, no parallel edges) and undirected: every
// undirected edge {u, v} is stored twice, once in the adjacency list of u and
// once in the adjacency list of v, with identical weights. Vertices are dense
// integers in [0, N). The representation is deliberately flat — three slices —
// so that a billion-edge graph costs no pointer-chasing and partitioning code
// can ship subranges between ranks without translation.
package graph

import (
	"fmt"
	"math"
)

// Vertex indexes a vertex. 32 bits keeps large instances compact; every graph
// in the paper's evaluation (up to 10^9 vertices) would need int64, but the
// scaled-down reproduction instances fit comfortably and the savings halve
// the memory footprint of the adjacency array.
type Vertex = int32

// None marks the absence of a vertex (an unmatched mate, an unset candidate).
const None Vertex = -1

// Graph is a weighted undirected graph in CSR form.
//
// The neighbors of vertex v are Adj[Xadj[v]:Xadj[v+1]], and the weight of the
// arc to Adj[i] is W[i]. For a valid Graph both directions of every edge are
// present with equal weight; BuildUndirected and Validate enforce this.
type Graph struct {
	// Xadj has length NumVertices()+1; Xadj[0] == 0.
	Xadj []int64
	// Adj holds concatenated adjacency lists, each sorted by vertex id.
	Adj []Vertex
	// W holds per-arc weights aligned with Adj. W may be nil for an
	// unweighted graph (all algorithms then treat every weight as 1).
	W []float64
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int { return len(g.Xadj) - 1 }

// NumArcs reports the number of stored directed arcs (twice the number of
// undirected edges).
func (g *Graph) NumArcs() int64 { return g.Xadj[len(g.Xadj)-1] }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.NumArcs() / 2 }

// Degree reports the number of neighbors of v.
func (g *Graph) Degree(v Vertex) int { return int(g.Xadj[v+1] - g.Xadj[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// the graph's storage and must not be modified.
func (g *Graph) Neighbors(v Vertex) []Vertex { return g.Adj[g.Xadj[v]:g.Xadj[v+1]] }

// Weights returns the arc weights aligned with Neighbors(v), or nil for an
// unweighted graph. The returned slice aliases the graph's storage.
func (g *Graph) Weights(v Vertex) []float64 {
	if g.W == nil {
		return nil
	}
	return g.W[g.Xadj[v]:g.Xadj[v+1]]
}

// Weight reports the weight of arc i (an index into Adj), treating an
// unweighted graph as uniformly weighted 1.
func (g *Graph) Weight(i int64) float64 {
	if g.W == nil {
		return 1
	}
	return g.W[i]
}

// BestArc is every matching's candidate-mate scan: the position in row adj
// (weights wts, nil for unit) of the heaviest arc to a u with !gone[u], the
// earliest on a tie — the edge order's first, as rows ascend in id (both
// Validates check it) — or -1 if all are gone. Light arcs' liveness is unread.
func BestArc(adj []Vertex, wts []float64, gone []bool) int {
	if wts == nil {
		for k, u := range adj {
			if !gone[u] {
				return k
			}
		}
		return -1
	}
	adj = adj[:len(wts)]
	best, bestW := -1, 0.0
	for k, w := range wts {
		if (best < 0 || w > bestW) && !gone[adj[k]] {
			best, bestW = k, w
		}
	}
	return best
}

// HasEdge reports whether {u, v} is an edge, by binary search in u's list.
func (g *Graph) HasEdge(u, v Vertex) bool {
	_, ok := g.findArc(u, v)
	return ok
}

// EdgeWeight reports the weight of edge {u, v} and whether the edge exists.
func (g *Graph) EdgeWeight(u, v Vertex) (float64, bool) {
	i, ok := g.findArc(u, v)
	if !ok {
		return 0, false
	}
	return g.Weight(i), true
}

func (g *Graph) findArc(u, v Vertex) (int64, bool) {
	lo, hi := g.Xadj[u], g.Xadj[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.Adj[mid] < v:
			lo = mid + 1
		case g.Adj[mid] > v:
			hi = mid
		default:
			return mid, true
		}
	}
	return 0, false
}

// MaxDegree reports the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(Vertex(v)); d > max {
			max = d
		}
	}
	return max
}

// MinDegree reports the minimum vertex degree (0 for an empty graph).
func (g *Graph) MinDegree() int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < n; v++ {
		if d := g.Degree(Vertex(v)); d < min {
			min = d
		}
	}
	return min
}

// Validate checks structural invariants: monotone Xadj, in-range sorted
// duplicate-free neighbor lists, no self loops, symmetric adjacency with
// matching weights, and finite weights. It returns the first violation found.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if len(g.Xadj) == 0 {
		return fmt.Errorf("graph: empty Xadj")
	}
	if g.Xadj[0] != 0 {
		return fmt.Errorf("graph: Xadj[0] = %d, want 0", g.Xadj[0])
	}
	if g.Xadj[n] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: Xadj[n] = %d, len(Adj) = %d", g.Xadj[n], len(g.Adj))
	}
	if g.W != nil && len(g.W) != len(g.Adj) {
		return fmt.Errorf("graph: len(W) = %d, len(Adj) = %d", len(g.W), len(g.Adj))
	}
	for v := 0; v < n; v++ {
		lo, hi := g.Xadj[v], g.Xadj[v+1]
		if lo > hi {
			return fmt.Errorf("graph: Xadj decreases at vertex %d", v)
		}
		for i := lo; i < hi; i++ {
			u := g.Adj[i]
			if u < 0 || int(u) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self loop at vertex %d", v)
			}
			if i > lo && g.Adj[i-1] >= u {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly sorted at %d", v, u)
			}
			if g.W != nil && (math.IsNaN(g.W[i]) || math.IsInf(g.W[i], 0)) {
				return fmt.Errorf("graph: non-finite weight on arc %d->%d", v, u)
			}
			j, ok := g.findArc(u, Vertex(v))
			if !ok {
				return fmt.Errorf("graph: arc %d->%d has no reverse", v, u)
			}
			if g.W != nil && g.W[i] != g.W[j] {
				return fmt.Errorf("graph: asymmetric weight on edge {%d,%d}: %g vs %g", v, u, g.W[i], g.W[j])
			}
		}
	}
	return nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Xadj: append([]int64(nil), g.Xadj...),
		Adj:  append([]Vertex(nil), g.Adj...),
	}
	if g.W != nil {
		c.W = append([]float64(nil), g.W...)
	}
	return c
}

// Edge is an undirected weighted edge, used by builders and generators.
type Edge struct {
	U, V Vertex
	W    float64
}

// ForEachEdge calls fn once per undirected edge {u, v} with u < v.
func (g *Graph) ForEachEdge(fn func(u, v Vertex, w float64)) {
	for u := 0; u < g.NumVertices(); u++ {
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			v := g.Adj[i]
			if Vertex(u) < v {
				fn(Vertex(u), v, g.Weight(i))
			}
		}
	}
}

// Edges returns all undirected edges with U < V.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	g.ForEachEdge(func(u, v Vertex, w float64) {
		edges = append(edges, Edge{U: u, V: v, W: w})
	})
	return edges
}

// String summarizes the graph for logs and test failures.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumVertices(), g.NumEdges())
}
