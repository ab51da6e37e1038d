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

	available := func(u graph.Vertex) bool { return mate[u] == graph.None && cm[u] != deadMark }

	// computeCandidate returns the best available neighbor of v, or None.
	computeCandidate := func(v graph.Vertex) graph.Vertex {
		adj := g.Neighbors(v)
		wts := g.Weights(v)
		best := graph.None
		bestW := 0.0
		for k, u := range adj {
			if !available(u) {
				continue
			}
			w := 1.0
			if wts != nil {
				w = wts[k]
			}
			if best == graph.None || better(w, u, bestW, best) {
				best, bestW = u, w
			}
		}
		return best
	}

	queue := make([]graph.Vertex, 0, n)
	// matchPair records the matched edge and queues both endpoints.
	matchPair := func(u, v graph.Vertex) {
		mate[u], mate[v] = v, u
		queue = append(queue, u, v)
	}
	// fail marks v permanently unmatchable and queues it so neighbors
	// pointing at it recompute.
	fail := func(v graph.Vertex) {
		cm[v] = deadMark
		queue = append(queue, v)
	}

	for v := 0; v < n; v++ {
		cm[v] = computeCandidate(graph.Vertex(v))
	}
	for v := 0; v < n; v++ {
		if mate[v] == graph.None && cm[v] == graph.None {
			fail(graph.Vertex(v)) // isolated (or all-dead) vertex
			continue
		}
		u := cm[v]
		if mate[v] == graph.None && u != graph.None && u > graph.Vertex(v) && cm[u] == graph.Vertex(v) {
			matchPair(graph.Vertex(v), u)
		}
	}

	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		// v just became unavailable (matched or failed): every free neighbor
		// pointing at v recomputes its candidate.
		for _, w := range g.Neighbors(v) {
			if mate[w] != graph.None || cm[w] == deadMark || cm[w] != v {
				continue
			}
			nc := computeCandidate(w)
			cm[w] = nc
			switch {
			case nc == graph.None:
				fail(w)
			case cm[nc] == w && mate[nc] == graph.None:
				matchPair(w, nc)
			}
		}
	}
	return mate
}

// deadMark flags a vertex that can never be matched (its candidate pool is
// exhausted) — the sequential counterpart of the FAILED message.
const deadMark graph.Vertex = -2
