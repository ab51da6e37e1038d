// Package matching implements the paper's edge-weighted matching algorithms
// (Section 3), all under one strict edge order (heavier first, then the
// sorted endpoint pair), which makes the half-approximate locally-dominant
// matching unique. Every candidate-mate scan realises it over rows ascending
// in id with one rule, graph.BestArc; the test files state it as precedes and
// keep Greedy, the sorted-edge matching, as the oracle that follows it:
//
//   - core.go: what a distributed kernel is written over — the record link
//     (one varint per record: pair-local edge index and kind), the bundle
//     receive and rank set-up — so that a kernel owns only its protocol;
//   - parallel.go (result assembled by gather.go): the asynchronous
//     REQUEST/SUCCEEDED/FAILED kernel with aggressive message bundling, split
//     into its rank-local loop and the protocol around it. The loop alone,
//     run over the whole graph as one ghost-free share, is LocallyDominant,
//     the sequential algorithm (Algorithm 3.1, candidate mates). Being one
//     loop, neither can vouch for the other: the tests hold both to Greedy;
//   - exact.go, the maximum-weight bipartite solver behind Table 1.1's
//     quality ratios; io.go.
package matching

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Mates describes a matching on a graph with n vertices: Mates[v] is the
// vertex matched to v, or graph.None. A valid matching is symmetric.
type Mates []graph.Vertex

// unmatched returns the empty matching on n vertices.
func unmatched(n int) Mates {
	m := make(Mates, n)
	for i := range m {
		m[i] = graph.None
	}
	return m
}

// Weight sums the weights of the matched edges.
func (m Mates) Weight(g *graph.Graph) float64 {
	var sum float64
	for v, u := range m {
		if u != graph.None && graph.Vertex(v) < u {
			w, ok := g.EdgeWeight(graph.Vertex(v), u)
			if !ok {
				return math.NaN()
			}
			sum += w
		}
	}
	return sum
}

// Cardinality counts matched edges.
func (m Mates) Cardinality() int {
	n := 0
	for v, u := range m {
		if u != graph.None && graph.Vertex(v) < u {
			n++
		}
	}
	return n
}

// Verify checks that m is a valid matching on g: in-range symmetric mates
// joined by actual edges.
func (m Mates) Verify(g *graph.Graph) error {
	if len(m) != g.NumVertices() {
		return fmt.Errorf("matching: %d mates for %d vertices", len(m), g.NumVertices())
	}
	for v, u := range m {
		if u == graph.None {
			continue
		}
		if u < 0 || int(u) >= len(m) {
			return fmt.Errorf("matching: vertex %d matched to out-of-range %d", v, u)
		}
		if int(u) == v {
			return fmt.Errorf("matching: vertex %d matched to itself", v)
		}
		if m[u] != graph.Vertex(v) {
			return fmt.Errorf("matching: asymmetric mates %d->%d but %d->%d", v, u, u, m[u])
		}
		if !g.HasEdge(graph.Vertex(v), u) {
			return fmt.Errorf("matching: matched pair {%d,%d} is not an edge", v, u)
		}
	}
	return nil
}

// VerifyMaximal additionally checks maximality: no edge joins two free
// vertices. Locally-dominant matchings are always maximal. Only the row of a
// free vertex can hold such an edge, and a maximal matching leaves few, so
// those rows are the ones scanned; the edge reported is the first in (lower
// endpoint, row position) order.
func (m Mates) VerifyMaximal(g *graph.Graph) error {
	if err := m.Verify(g); err != nil {
		return err
	}
	for u, mate := range m {
		if mate != graph.None {
			continue
		}
		for _, v := range g.Neighbors(graph.Vertex(u)) {
			if graph.Vertex(u) < v && m[v] == graph.None {
				return fmt.Errorf("matching: not maximal, edge {%d,%d} has two free endpoints", u, v)
			}
		}
	}
	return nil
}
