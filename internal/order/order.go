// Package order provides the vertex ordering techniques that the greedy
// coloring literature (Gebremedhin–Nguyen–Pothen–Patwary, "ColPack", cited as
// [8] in the paper) shows make first-fit coloring near-optimal in practice:
// largest-degree-first, smallest-degree-last, incidence degree, and
// saturation degree, plus natural and random baselines.
package order

import (
	"fmt"
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Ordering names a vertex ordering strategy.
type Ordering int

const (
	// Natural visits vertices in id order.
	Natural Ordering = iota
	// Random visits vertices in seeded random order.
	Random
	// LargestFirst visits vertices in non-increasing degree order.
	LargestFirst
	// SmallestLast repeatedly removes a minimum-degree vertex and colors in
	// reverse removal order; it colors any graph with at most 1+core-number
	// colors (2 colors on the paper's grid graphs).
	SmallestLast
	// IncidenceDegree greedily picks the vertex with the most already-ordered
	// neighbors, breaking ties by degree.
	IncidenceDegree
	// SaturationDegree (DSATUR) picks the vertex whose ordered neighbors use
	// the most distinct colors; computed here structurally, it reduces to
	// incidence degree with different tie-breaking and is provided for
	// completeness of the ColPack menu.
	SaturationDegree
)

// String returns the conventional name of the ordering.
func (o Ordering) String() string {
	switch o {
	case Natural:
		return "natural"
	case Random:
		return "random"
	case LargestFirst:
		return "largest-first"
	case SmallestLast:
		return "smallest-last"
	case IncidenceDegree:
		return "incidence-degree"
	case SaturationDegree:
		return "saturation-degree"
	}
	return fmt.Sprintf("ordering(%d)", int(o))
}

// ParseOrdering maps a name (as printed by String) back to an Ordering.
func ParseOrdering(s string) (Ordering, error) {
	for _, o := range []Ordering{Natural, Random, LargestFirst, SmallestLast, IncidenceDegree, SaturationDegree} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("order: unknown ordering %q", s)
}

// Compute returns a permutation of the vertices of g in the visit order of
// the strategy: result[i] is the i-th vertex to process. seed matters only
// for Random.
func Compute(g *graph.Graph, o Ordering, seed uint64) ([]graph.Vertex, error) {
	n := g.NumVertices()
	switch o {
	case Natural:
		out := make([]graph.Vertex, n)
		for i := range out {
			out[i] = graph.Vertex(i)
		}
		return out, nil
	case Random:
		p := gen.NewRNG(seed).Perm(n)
		out := make([]graph.Vertex, n)
		for i, v := range p {
			out[i] = graph.Vertex(v)
		}
		return out, nil
	case LargestFirst:
		out := make([]graph.Vertex, n)
		for i := range out {
			out[i] = graph.Vertex(i)
		}
		sort.SliceStable(out, func(i, j int) bool {
			return g.Degree(out[i]) > g.Degree(out[j])
		})
		return out, nil
	case SmallestLast:
		return smallestLast(g), nil
	case IncidenceDegree, SaturationDegree:
		return incidence(g, o == SaturationDegree), nil
	}
	return nil, fmt.Errorf("order: unknown ordering %d", int(o))
}

// smallestLast computes the smallest-degree-last order with a bucket queue in
// O(n + m).
func smallestLast(g *graph.Graph) []graph.Vertex {
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(graph.Vertex(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]graph.Vertex, maxDeg+1)
	where := make([]int, n) // index of v within its bucket
	for v := 0; v < n; v++ {
		where[v] = len(buckets[deg[v]])
		buckets[deg[v]] = append(buckets[deg[v]], graph.Vertex(v))
	}
	removed := make([]bool, n)
	out := make([]graph.Vertex, n)
	cur := 0
	for i := n - 1; i >= 0; i-- {
		// The minimum non-empty bucket can only decrease by one per removal.
		if cur > 0 {
			cur--
		}
		for cur <= maxDeg && len(buckets[cur]) == 0 {
			cur++
		}
		b := buckets[cur]
		v := b[len(b)-1]
		buckets[cur] = b[:len(b)-1]
		removed[v] = true
		out[i] = v
		for _, u := range g.Neighbors(v) {
			if removed[u] {
				continue
			}
			d := deg[u]
			// Remove u from bucket d by swap-with-last.
			bu := buckets[d]
			last := bu[len(bu)-1]
			bu[where[u]] = last
			where[last] = where[u]
			buckets[d] = bu[:len(bu)-1]
			// Reinsert at d-1.
			deg[u] = d - 1
			where[u] = len(buckets[d-1])
			buckets[d-1] = append(buckets[d-1], u)
		}
	}
	return out
}

// incidence computes incidence-degree order (or its saturation variant):
// repeatedly pick the unordered vertex with the most ordered neighbors
// (saturation: weighting already-ordered neighbors once per distinct
// position class), tie-breaking by static degree then id.
func incidence(g *graph.Graph, saturation bool) []graph.Vertex {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	score := make([]int, n)
	done := make([]bool, n)
	out := make([]graph.Vertex, 0, n)
	// Bucket queue on score; scores only grow, bounded by degree <= n-1.
	maxDeg := g.MaxDegree()
	buckets := make([][]graph.Vertex, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[0] = append(buckets[0], graph.Vertex(v))
	}
	top := 0
	for len(out) < n {
		// Find the current best bucket; stale entries are skipped lazily.
		for top > 0 && len(buckets[top]) == 0 {
			top--
		}
		var v graph.Vertex = graph.None
		for b := top; b >= 0; b-- {
			for len(buckets[b]) > 0 {
				cand := buckets[b][len(buckets[b])-1]
				buckets[b] = buckets[b][:len(buckets[b])-1]
				if !done[cand] && score[cand] == b {
					v = cand
					break
				}
			}
			if v != graph.None {
				break
			}
		}
		if v == graph.None {
			// All remaining entries were stale; rebuild (cannot happen when
			// scores are maintained correctly, kept as a safety net).
			for u := 0; u < n; u++ {
				if !done[u] {
					v = graph.Vertex(u)
					break
				}
			}
		}
		done[v] = true
		out = append(out, v)
		for _, u := range g.Neighbors(v) {
			if done[u] {
				continue
			}
			bump := 1
			if saturation && score[u] > 0 {
				// Saturation counts distinct "colors"; structurally we
				// approximate by diminishing returns after first neighbor.
				bump = 0
				if score[u] < g.Degree(u) {
					bump = 1
				}
			}
			score[u] += bump
			if score[u] > maxDeg {
				score[u] = maxDeg
			}
			buckets[score[u]] = append(buckets[score[u]], u)
			if score[u] > top {
				top = score[u]
			}
		}
	}
	return out
}
