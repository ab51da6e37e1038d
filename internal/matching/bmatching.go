package matching

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// BMatching is a b-matching: every vertex v is incident on at most B[v]
// matched edges. b-matching generalizes matching (b ≡ 1) and underlies
// several of the paper's §1 applications — Halappanavar's thesis [9], the
// paper's reference for the matching algorithm's full treatment, develops
// exactly this family. The greedy ½-approximation and the locally-dominant
// protocol both generalize, which is why the repository carries them.
type BMatching struct {
	// B is the per-vertex capacity.
	B []int
	// Partners[v] lists the matched partners of v, sorted ascending.
	Partners [][]graph.Vertex
}

// UniformB returns a capacity vector with b for every vertex.
func UniformB(n, b int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// Weight sums matched edge weights (each edge once).
func (m *BMatching) Weight(g *graph.Graph) float64 {
	var sum float64
	for v, ps := range m.Partners {
		for _, u := range ps {
			if graph.Vertex(v) < u {
				if w, ok := g.EdgeWeight(graph.Vertex(v), u); ok {
					sum += w
				}
			}
		}
	}
	return sum
}

// Size counts matched edges.
func (m *BMatching) Size() int {
	n := 0
	for v, ps := range m.Partners {
		for _, u := range ps {
			if graph.Vertex(v) < u {
				n++
			}
		}
	}
	return n
}

// Verify checks capacities, symmetry, edge existence and duplicates.
func (m *BMatching) Verify(g *graph.Graph) error {
	if len(m.Partners) != g.NumVertices() || len(m.B) != g.NumVertices() {
		return fmt.Errorf("matching: b-matching covers %d/%d vertices for graph with %d",
			len(m.Partners), len(m.B), g.NumVertices())
	}
	for v, ps := range m.Partners {
		if len(ps) > m.B[v] {
			return fmt.Errorf("matching: vertex %d has %d partners, capacity %d", v, len(ps), m.B[v])
		}
		for i, u := range ps {
			if i > 0 && ps[i-1] >= u {
				return fmt.Errorf("matching: partners of %d not sorted/unique", v)
			}
			if !g.HasEdge(graph.Vertex(v), u) {
				return fmt.Errorf("matching: pair {%d,%d} is not an edge", v, u)
			}
			if !slices.Contains(m.Partners[u], graph.Vertex(v)) {
				return fmt.Errorf("matching: asymmetric pair {%d,%d}", v, u)
			}
		}
	}
	return nil
}

// VerifyMaximal additionally checks that no edge joins two under-capacity
// vertices that are not already matched to each other.
func (m *BMatching) VerifyMaximal(g *graph.Graph) error {
	if err := m.Verify(g); err != nil {
		return err
	}
	var bad error
	g.ForEachEdge(func(u, v graph.Vertex, _ float64) {
		if bad != nil {
			return
		}
		if len(m.Partners[u]) < m.B[u] && len(m.Partners[v]) < m.B[v] &&
			!slices.Contains(m.Partners[u], v) {
			bad = fmt.Errorf("matching: not b-maximal, edge {%d,%d} joins under-capacity vertices", u, v)
		}
	})
	return bad
}

// GreedyB computes the greedy ½-approximate b-matching: edges in the
// package's edge order, take each whose endpoints both have spare capacity.
// At b ≡ 1 it is Greedy.
func GreedyB(g *graph.Graph, b []int) (*BMatching, error) {
	n := g.NumVertices()
	if len(b) != n {
		return nil, fmt.Errorf("matching: %d capacities for %d vertices", len(b), n)
	}
	for v, cap := range b {
		if cap < 0 {
			return nil, fmt.Errorf("matching: negative capacity at vertex %d", v)
		}
	}
	m := &BMatching{B: b, Partners: make([][]graph.Vertex, n)}
	left := append([]int(nil), b...)
	for _, e := range edgesInOrder(g) {
		if left[e.U] > 0 && left[e.V] > 0 {
			m.Partners[e.U] = append(m.Partners[e.U], e.V)
			m.Partners[e.V] = append(m.Partners[e.V], e.U)
			left[e.U]--
			left[e.V]--
		}
	}
	for v := range m.Partners {
		slices.Sort(m.Partners[v])
	}
	return m, nil
}
