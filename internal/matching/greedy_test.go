package matching

import (
	"slices"

	"repro/internal/graph"
)

// precedes is the strict total order on edges that every algorithm here
// follows: heavier first, then lexicographic on the sorted endpoint pair. A
// consistent total order is what makes the locally-dominant (greedy) matching
// unique — the reason the result is identical at any rank count, and the
// reason the distributed protocols can reproduce the sequential one exactly.
// Greedy sorts by it; the candidate-mate scans realise it through row order
// (graph.BestArc).
func precedes(wa float64, a1, a2 graph.Vertex, wb float64, b1, b2 graph.Vertex) bool {
	if wa != wb {
		return wa > wb
	}
	if a1 > a2 {
		a1, a2 = a2, a1
	}
	if b1 > b2 {
		b1, b2 = b2, b1
	}
	if a1 != b1 {
		return a1 < b1
	}
	return a2 < b2
}

// Greedy computes the classic sorted-edge half-approximate matching: visit
// edges in non-increasing weight order (ties by endpoint labels) and take
// every edge whose endpoints are both free. It produces exactly the
// locally-dominant matching — both compute the unique greedy matching of the
// preference order — but needs a global sort, which is what makes it
// unattractive for distributed memory and motivates the paper's choice. Here
// it is the oracle the candidate-mate machines are held to.
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
