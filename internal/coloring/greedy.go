// Package coloring implements the paper's distance-1 vertex coloring
// algorithms (Section 4): the sequential greedy algorithm over the ColPack
// vertex orderings, the distributed speculative/iterative framework of
// Bozdağ et al. (Algorithm 4.1) with the paper's three communication
// variants (FIAB broadcast, FIAC customized-to-all, and the NEW
// customized-to-neighbors scheme), randomized conflict resolution, and the
// Jones–Plassmann maximal-independent-set baseline the framework was shown
// to beat.
package coloring

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/order"
)

// Colors assigns each vertex a color in [0, NumColors); -1 marks uncolored.
type Colors []int32

// NumColors reports the number of distinct colors used (max + 1).
func (c Colors) NumColors() int {
	max := int32(-1)
	for _, col := range c {
		if col > max {
			max = col
		}
	}
	return int(max + 1)
}

// Verify checks that c is a proper and complete distance-1 coloring of g.
func (c Colors) Verify(g *graph.Graph) error {
	if len(c) != g.NumVertices() {
		return fmt.Errorf("coloring: %d colors for %d vertices", len(c), g.NumVertices())
	}
	for v, col := range c {
		if col < 0 {
			return fmt.Errorf("coloring: vertex %d uncolored", v)
		}
		for _, u := range g.Neighbors(graph.Vertex(v)) {
			if c[u] == col {
				return fmt.Errorf("coloring: conflict on edge {%d,%d}, both color %d", v, u, col)
			}
		}
	}
	return nil
}

// Strategy selects how a permissible color is chosen for a vertex — the
// framework's "How should a processor choose a color?" knob.
type Strategy int

const (
	// FirstFit picks the smallest color not used by any colored neighbor —
	// the choice the paper's experiments settled on.
	FirstFit Strategy = iota
	// StaggeredFirstFit starts the search at a per-processor base color
	// (base = rank * initial-estimate / p) and wraps, trading a few more
	// colors for fewer conflicts between processors.
	StaggeredFirstFit
	// LeastUsed picks, among permissible colors up to the current maximum,
	// the one used least so far (globally tracked per processor), balancing
	// color-class sizes.
	LeastUsed
)

// String names the strategy as in the framework literature.
func (s Strategy) String() string {
	switch s {
	case FirstFit:
		return "first-fit"
	case StaggeredFirstFit:
		return "staggered-first-fit"
	case LeastUsed:
		return "least-used"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Greedy colors g sequentially, visiting vertices in the given ordering and
// assigning each the first-fit color. It uses at most Δ+1 colors.
func Greedy(g *graph.Graph, o order.Ordering, seed uint64) (Colors, error) {
	ord, err := order.Compute(g, o, seed)
	if err != nil {
		return nil, err
	}
	return GreedyOrder(g, ord), nil
}

// GreedyOrder colors g by first fit in the exact vertex order given.
func GreedyOrder(g *graph.Graph, ord []graph.Vertex) Colors {
	n := g.NumVertices()
	colors := make(Colors, n)
	for i := range colors {
		colors[i] = -1
	}
	picker := newFirstFit(g.MaxDegree() + 1)
	for _, v := range ord {
		colors[v] = picker.pick(colors, g.Neighbors(v))
	}
	return colors
}

// firstFit finds the smallest color absent from a neighbor list, reusing a
// timestamped mark array so each pick costs O(degree).
type firstFit struct {
	mark  []int64
	stamp int64
}

func newFirstFit(maxColors int) *firstFit {
	return &firstFit{mark: make([]int64, maxColors+1)}
}

// pick returns the smallest color not used by any of the neighbors.
func (f *firstFit) pick(colors Colors, neighbors []graph.Vertex) int32 {
	f.stamp++
	for _, u := range neighbors {
		f.use(colors[u])
	}
	return f.firstFree()
}

// use marks color c as taken for the current stamp; uncolored (-1) and
// out-of-palette values are ignored, both by one unsigned comparison.
func (f *firstFit) use(c int32) {
	if i := uint(uint32(c)); i < uint(len(f.mark)) {
		f.mark[i] = f.stamp
	}
}

// firstFree returns the smallest color not marked under the current stamp.
func (f *firstFit) firstFree() int32 {
	for c := range f.mark {
		if f.mark[c] != f.stamp {
			return int32(c)
		}
	}
	// Unreachable when mark has maxDegree+2 slots: a vertex has at most
	// maxDegree neighbors.
	panic("coloring: first-fit ran out of colors")
}

// Bounds returns simple lower and upper bounds for the chromatic number:
// the size of a greedily grown clique (lower) and Δ+1 (upper) — the
// "appropriate lower bounds" the paper cites for judging greedy solutions.
func Bounds(g *graph.Graph) (lower, upper int) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0
	}
	upper = g.MaxDegree() + 1
	// Grow a clique greedily from a maximum-degree vertex.
	start := graph.Vertex(0)
	for v := 1; v < n; v++ {
		if g.Degree(graph.Vertex(v)) > g.Degree(start) {
			start = graph.Vertex(v)
		}
	}
	clique := []graph.Vertex{start}
	for _, u := range g.Neighbors(start) {
		inClique := true
		for _, c := range clique {
			if c != start && !g.HasEdge(u, c) {
				inClique = false
				break
			}
		}
		if inClique {
			clique = append(clique, u)
		}
	}
	lower = len(clique)
	if lower < 1 {
		lower = 1
	}
	return lower, upper
}
