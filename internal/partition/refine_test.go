package partition

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// fullScanRefine is refine before it kept cut counts: every pass visits
// every vertex and sums its arcs. It is the oracle TestRefineMatchesFullScan
// holds refine to.
func fullScanRefine(lev *level, part []int32, p int, passes int, imbalance float64, rng *gen.RNG, s *scratch) {
	if passes <= 0 {
		return
	}
	g := lev.g
	n := g.NumVertices()
	load := make([]int64, p)
	var total int64
	for v := 0; v < n; v++ {
		load[part[v]] += lev.vwgt[v]
		total += lev.vwgt[v]
	}
	maxLoad := int64(float64(total)/float64(p)*(1+imbalance)) + 1
	ext := s.ext
	order := s.perm[:n]
	for pass := 0; pass < passes; pass++ {
		moved := 0
		gen.FillPerm(rng, order)
		for _, v := range order {
			home := part[v]
			adj := g.Neighbors(v)
			internal := 0.0
			touched := s.touched[:0]
			wts := g.Weights(v)
			for k, u := range adj {
				w := 1.0
				if wts != nil {
					w = wts[k]
				}
				q := part[u]
				if q == home {
					internal += w
					continue
				}
				if ext[q] == 0 {
					touched = append(touched, q)
				}
				ext[q] += w
			}
			bestPart := home
			bestGain := 0.0
			for _, q := range touched {
				gain := ext[q] - internal
				if load[q]+lev.vwgt[v] > maxLoad {
					continue
				}
				if gain > bestGain || gain == bestGain && bestPart != home && q < bestPart {
					bestGain, bestPart = gain, q
				}
			}
			for _, q := range touched {
				ext[q] = 0
			}
			if bestPart != home {
				load[home] -= lev.vwgt[v]
				load[bestPart] += lev.vwgt[v]
				part[v] = bestPart
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// fullScanMultilevel is Multilevel at its default options with
// fullScanRefine in refine's place.
func fullScanMultilevel(g *graph.Graph, p int, seed uint64) []int32 {
	n := g.NumVertices()
	lev := &level{g: g, vwgt: unitWeights(n)}
	var stack []*level
	rng := gen.NewRNG(seed)
	s := &scratch{perm: make([]graph.Vertex, n), mate: make([]graph.Vertex, n)}
	for lev.g.NumVertices() > max(32*p, 256) {
		next := coarsen(lev, rng, s)
		if next == nil {
			break
		}
		stack = append(stack, lev)
		lev = next
	}
	part := make([]int32, lev.g.NumVertices())
	all := make([]graph.Vertex, len(part))
	for i := range all {
		all[i] = graph.Vertex(i)
	}
	s.mark = make([]int32, len(all))
	bisect(lev, all, 0, p, part, rng, s)
	s.ext, s.touched = make([]float64, p), make([]int32, 0, p)
	fullScanRefine(lev, part, p, DefaultRefinePasses, 0.05, rng, s)
	for i := len(stack) - 1; i >= 0; i-- {
		fine := stack[i]
		finePart := make([]int32, fine.g.NumVertices())
		for v := range finePart {
			finePart[v] = part[fine.coarseOf[v]]
		}
		part = finePart
		fullScanRefine(fine, part, p, DefaultRefinePasses, 0.05, rng, s)
	}
	return part
}

// cancellingWeights returns g with every edge weighing −1.5, 0 or 1.5 by its
// endpoints: zero-weight cut arcs, and sums to a part that return to zero.
func cancellingWeights(g *graph.Graph) *graph.Graph {
	c := g.Clone()
	c.W = make([]float64, len(c.Adj))
	for v := 0; v < c.NumVertices(); v++ {
		for i := c.Xadj[v]; i < c.Xadj[v+1]; i++ {
			a, b := int64(v), int64(c.Adj[i])
			c.W[i] = 1.5 * float64((min(a, b)*7+max(a, b)*13)%3-1)
		}
	}
	return c
}

// TestRefineMatchesFullScan holds refine, which skips the vertices its cut
// counts say have no arc into another part, to the loop that scanned them
// all: the same Part on every cell, so the skip is exact. The cells are the
// golden tables' graphs, weighted and unit, plus two with weights that are
// zero or cancel.
func TestRefineMatchesFullScan(t *testing.T) {
	must := mustGraph(t)
	graphs := append(goldenGraphs(t),
		goldenGraph{"grid60x50-unit", must(gen.Grid2D(60, 50, false, 0))},
		goldenGraph{"er3000-unit", must(gen.ErdosRenyi(3000, 12000, false, 17))},
		goldenGraph{"rmat11-unit", must(gen.RMAT(11, 8, false, 19))},
	)
	for _, gg := range graphs[2:4] {
		graphs = append(graphs, goldenGraph{gg.name + "-cancelling", cancellingWeights(gg.g)})
	}
	for _, gg := range graphs {
		for _, p := range []int{2, 3, 4, 7, 16} {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s P=%d seed=%d", gg.name, p, seed)
				got, err := Multilevel(gg.g, p, MultilevelOptions{Seed: seed})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(got.Part, fullScanMultilevel(gg.g, p, seed)) {
					t.Errorf("%s: refine's Part differs from the full scan's", name)
				}
			}
		}
	}
}
