package matching

import (
	"slices"

	"repro/internal/graph"
)

// Greedy computes the classic sorted-edge half-approximate matching: visit
// edges in non-increasing weight order (ties by endpoint labels) and take
// every edge whose endpoints are both free. Like the locally-dominant
// algorithm it guarantees weight(M) >= optimum/2, and it produces exactly
// the same matching — both compute the unique greedy matching of the
// preference order — but needs a global sort, which is what makes it
// unattractive for distributed memory and motivates the paper's choice.
func Greedy(g *graph.Graph) Mates {
	m := unmatched(g.NumVertices())
	edges := g.Edges()
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if precedes(a.W, a.U, a.V, b.W, b.U, b.V) {
			return -1
		}
		return 1 // a simple graph's edges are distinct
	})
	for _, e := range edges {
		if m[e.U] == graph.None && m[e.V] == graph.None {
			m[e.U], m[e.V] = e.V, e.U
		}
	}
	return m
}
