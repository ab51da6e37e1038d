package coloring

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/order"
)

// GreedyDistance2 computes a distance-2 coloring: every two vertices within
// two hops of each other receive different colors. Distance-2 coloring is
// the variant the paper's derivative-computation motivation ([7], "What
// color is your Jacobian?") actually consumes — a distance-2 coloring of a
// matrix's column graph yields structurally orthogonal column groups — and
// rounds out the "matching and coloring in many variations" menu of
// Section 2.
//
// The greedy scheme mirrors the distance-1 version: visit vertices in the
// given ordering, mark the colors of all distance-1 and distance-2
// neighbors, take the smallest free color. It uses at most Δ²+1 colors.
func GreedyDistance2(g *graph.Graph, o order.Ordering, seed uint64) (Colors, error) {
	ord, err := order.Compute(g, o, seed)
	if err != nil {
		return nil, err
	}
	return GreedyDistance2Order(g, ord), nil
}

// GreedyDistance2Order colors g at distance 2 by first fit in the exact
// vertex order given.
func GreedyDistance2Order(g *graph.Graph, ord []graph.Vertex) Colors {
	n := g.NumVertices()
	colors := make(Colors, n)
	for i := range colors {
		colors[i] = -1
	}
	maxDeg := g.MaxDegree()
	bound := maxDeg*maxDeg + 1
	if bound > n {
		bound = n
	}
	if bound < 1 {
		bound = 1
	}
	picker := newFirstFit(bound)
	for _, v := range ord {
		picker.stamp++
		for _, u := range g.Neighbors(v) {
			picker.use(colors[u])
			for _, w := range g.Neighbors(u) {
				if w != v {
					picker.use(colors[w])
				}
			}
		}
		// A vertex has at most Δ² distance-≤2 neighbors and the picker
		// has Δ²+1 (capped at n) usable slots, so firstFree always finds one.
		colors[v] = picker.firstFree()
	}
	return colors
}

// VerifyDistance2 checks that c is a proper complete distance-2 coloring.
func VerifyDistance2(g *graph.Graph, c Colors) error {
	if err := c.Verify(g); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			for _, w := range g.Neighbors(u) {
				if int(w) != v && c[w] == c[v] {
					return fmt.Errorf("coloring: distance-2 conflict %d..%d..%d, both color %d", v, u, w, c[v])
				}
			}
		}
	}
	return nil
}
