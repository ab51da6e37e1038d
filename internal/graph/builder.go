package graph

import "fmt"

// BuildUndirected assembles a CSR graph from an undirected edge list.
//
// Self loops are dropped. Duplicate edges (in either orientation) are merged;
// the policy for the merged weight is dedupe. The adjacency lists of the
// result are sorted by neighbor id, as required by Graph's invariants.
//
// The work is O(n + len(edges)): the normalised list is put in (U, V) order
// by a stable counting sort, and not at all when it already ascends, as a
// list read back from a CSR graph does. Stable means parallel edges stay in
// input order, which is the order the dedupe policies see them in.
func BuildUndirected(n int, edges []Edge, dedupe DedupePolicy) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > 1<<31-1 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds 32-bit vertex ids", n)
	}
	// Normalize: drop self loops, orient u < v, validate ranges.
	norm := make([]Edge, 0, len(edges))
	ascending := true
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if k := len(norm); k > 0 && (norm[k-1].U > e.U || norm[k-1].U == e.U && norm[k-1].V > e.V) {
			ascending = false
		}
		norm = append(norm, e)
	}
	if !ascending {
		// Least significant key first; the second pass is stable, so edges
		// with equal U keep the V order the first pass gave them.
		scratch := make([]Edge, len(norm))
		count := make([]int, n+1)
		countingSort(scratch, norm, count, func(e Edge) Vertex { return e.V })
		clear(count)
		countingSort(norm, scratch, count, func(e Edge) Vertex { return e.U })
	}
	// Merge duplicates in place.
	out := norm[:0]
	for _, e := range norm {
		if len(out) > 0 && out[len(out)-1].U == e.U && out[len(out)-1].V == e.V {
			last := &out[len(out)-1]
			switch dedupe {
			case DedupeSum:
				last.W += e.W
			case DedupeMax:
				if e.W > last.W {
					last.W = e.W
				}
			case DedupeFirst:
				// keep last.W
			default:
				return nil, fmt.Errorf("graph: unknown dedupe policy %d", dedupe)
			}
			continue
		}
		out = append(out, e)
	}
	return fromSortedEdges(n, out), nil
}

// countingSort writes src into dst ordered by key, equal keys in src order.
// count must hold one zero per key value plus one.
func countingSort(dst, src []Edge, count []int, key func(Edge) Vertex) {
	for _, e := range src {
		count[key(e)+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for _, e := range src {
		k := key(e)
		dst[count[k]] = e
		count[k]++
	}
}

// DedupePolicy says how BuildUndirected merges parallel edges.
type DedupePolicy int

const (
	// DedupeFirst keeps the weight of the first occurrence in the edge list.
	DedupeFirst DedupePolicy = iota
	// DedupeSum adds the weights of parallel edges, in edge-list order (the
	// order matters to the last bit of a floating-point sum).
	DedupeSum
	// DedupeMax keeps the heaviest parallel edge.
	DedupeMax
)

// fromSortedEdges builds the CSR arrays from a deduplicated edge list with
// U < V sorted by (U, V).
func fromSortedEdges(n int, edges []Edge) *Graph {
	g := &Graph{
		Xadj: make([]int64, n+1),
		Adj:  make([]Vertex, 2*len(edges)),
		W:    make([]float64, 2*len(edges)),
	}
	// Count degrees.
	for _, e := range edges {
		g.Xadj[e.U+1]++
		g.Xadj[e.V+1]++
	}
	for v := 0; v < n; v++ {
		g.Xadj[v+1] += g.Xadj[v]
	}
	// Fill. cursor tracks the next free slot per vertex. A single pass over
	// the (U, V)-sorted edge list leaves every adjacency list sorted without
	// a per-vertex sort: vertex v's smaller neighbors arrive while scanning
	// edges with U < v (ascending in U = the neighbor), strictly before its
	// larger neighbors, which arrive while scanning edges with U = v
	// (ascending in V = the neighbor).
	cursor := make([]int64, n)
	copy(cursor, g.Xadj[:n])
	for _, e := range edges {
		iu := cursor[e.U]
		g.Adj[iu], g.W[iu] = e.V, e.W
		cursor[e.U]++
		iv := cursor[e.V]
		g.Adj[iv], g.W[iv] = e.U, e.W
		cursor[e.V]++
	}
	return g
}

// FromAdjacency builds a graph directly from per-vertex neighbor lists,
// symmetrizing and deduplicating as needed. Weights default to 1.
func FromAdjacency(adj [][]Vertex) (*Graph, error) {
	var edges []Edge
	for u, list := range adj {
		for _, v := range list {
			edges = append(edges, Edge{U: Vertex(u), V: v, W: 1})
		}
	}
	return BuildUndirected(len(adj), edges, DedupeFirst)
}

// Permute relabels the graph: vertex v becomes perm[v]. perm must be a
// permutation of [0, n).
func Permute(g *Graph, perm []Vertex) (*Graph, error) {
	n := g.NumVertices()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: invalid permutation entry %d", p)
		}
		seen[p] = true
	}
	edges := make([]Edge, 0, g.NumEdges())
	g.ForEachEdge(func(u, v Vertex, w float64) {
		edges = append(edges, Edge{U: perm[u], V: perm[v], W: w})
	})
	out, err := BuildUndirected(n, edges, DedupeFirst)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InducedSubgraph extracts the subgraph induced by the given vertices.
// It returns the subgraph plus the mapping from new ids to original ids.
func InducedSubgraph(g *Graph, vertices []Vertex) (*Graph, []Vertex, error) {
	toNew := make(map[Vertex]Vertex, len(vertices))
	toOld := make([]Vertex, len(vertices))
	for i, v := range vertices {
		if v < 0 || int(v) >= g.NumVertices() {
			return nil, nil, fmt.Errorf("graph: subgraph vertex %d out of range", v)
		}
		if _, dup := toNew[v]; dup {
			return nil, nil, fmt.Errorf("graph: subgraph vertex %d repeated", v)
		}
		toNew[v] = Vertex(i)
		toOld[i] = v
	}
	var edges []Edge
	for i, v := range toOld {
		adj := g.Neighbors(v)
		for k, u := range adj {
			nu, ok := toNew[u]
			if !ok || nu <= Vertex(i) {
				continue
			}
			edges = append(edges, Edge{U: Vertex(i), V: nu, W: g.Weight(g.Xadj[v] + int64(k))})
		}
	}
	sub, err := BuildUndirected(len(vertices), edges, DedupeFirst)
	if err != nil {
		return nil, nil, err
	}
	return sub, toOld, nil
}
