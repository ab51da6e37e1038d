package matching

import "repro/internal/graph"

// LocallyDominant computes the half-approximate matching by repeatedly
// matching locally dominant edges — Section 3.1's sequential algorithm. Each
// vertex v maintains candidateMate(v), the most preferred available
// neighbor (heaviest incident edge, ties to the smaller label); an edge
// (u, v) with candidateMate(u) = v and candidateMate(v) = u is locally
// dominant and joins the matching; matched vertices flow through a queue, and
// each neighbor w whose candidate died recomputes candidateMate(w) from its
// remaining available neighbors.
//
// The result is deterministic and — with the consistent tie-breaking order —
// identical to the sorted-edge Greedy matching, but the computation touches
// edges only locally, which is the property the parallel version exploits.
func LocallyDominant(g *graph.Graph) Mates {
	n := g.NumVertices()
	mate := unmatched(n)
	cm := make([]graph.Vertex, n)
	gone := make([]bool, n) // matched, or failed: the candidate pool is exhausted

	// computeCandidate returns the best neighbor of v not gone, or None.
	computeCandidate := func(v graph.Vertex) graph.Vertex {
		adj := g.Neighbors(v)
		if k := graph.BestArc(adj, g.Weights(v), gone); k >= 0 {
			return adj[k]
		}
		return graph.None
	}

	queue := make([]graph.Vertex, 0, n)
	// matchPair records the matched edge and queues both endpoints.
	matchPair := func(u, v graph.Vertex) {
		mate[u], mate[v] = v, u
		gone[u], gone[v] = true, true
		queue = append(queue, u, v)
	}
	// fail marks v permanently unmatchable — the sequential counterpart of
	// the FAILED message — and queues it so neighbors pointing at it
	// recompute.
	fail := func(v graph.Vertex) {
		gone[v] = true
		queue = append(queue, v)
	}

	for v := 0; v < n; v++ {
		cm[v] = computeCandidate(graph.Vertex(v))
	}
	for v := 0; v < n; v++ {
		u := cm[v]
		if u == graph.None {
			fail(graph.Vertex(v)) // isolated vertex
			continue
		}
		if !gone[v] && u > graph.Vertex(v) && cm[u] == graph.Vertex(v) {
			matchPair(graph.Vertex(v), u)
		}
	}

	for i := 0; i < len(queue); i++ {
		v := queue[i]
		// v just became unavailable (matched or failed): every free neighbor
		// pointing at v recomputes its candidate.
		for _, w := range g.Neighbors(v) {
			if cm[w] != v || gone[w] {
				continue
			}
			nc := computeCandidate(w)
			cm[w] = nc
			switch {
			case nc == graph.None:
				fail(w)
			case cm[nc] == w && !gone[nc]:
				matchPair(w, nc)
			}
		}
	}
	return mate
}
