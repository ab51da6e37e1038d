// Multilevel coarsening: the paper's third matching motivation (Section 1,
// citing Karypis & Kumar) — the coarsening phase of multilevel graph
// partitioners contracts a matching at every level. Heavy-edge matchings
// keep strongly connected vertices together, which is why a maximum-weight
// matching (or a good approximation) makes a good coarsener.
//
// This example repeatedly contracts the parallel half-approximate matching
// of a mesh until it is small, reporting the shrink factor and the
// preserved edge weight per level — the classic multilevel V-cycle's
// downward leg, driven entirely by this repository's matcher.
package main

import (
	"fmt"
	"log"

	"repro/dmgm"
)

// contract collapses each matched pair into one coarse vertex and sums
// parallel coarse edges.
func contract(g *dmgm.Graph, mates dmgm.Mates) (*dmgm.Graph, int) {
	n := g.NumVertices()
	coarseOf := make([]dmgm.Vertex, n)
	next := dmgm.Vertex(0)
	for v := 0; v < n; v++ {
		switch u := mates[v]; {
		case u == dmgm.None:
			coarseOf[v] = next
			next++
		case dmgm.Vertex(v) < u:
			coarseOf[v] = next
			coarseOf[u] = next
			next++
		}
	}
	var edges []dmgm.Edge
	g.ForEachEdge(func(u, v dmgm.Vertex, w float64) {
		cu, cv := coarseOf[u], coarseOf[v]
		if cu != cv {
			edges = append(edges, dmgm.Edge{U: cu, V: cv, W: w})
		}
	})
	// Sum weights of parallel edges, as multilevel coarsening does.
	coarse, err := dmgm.NewGraphSummed(int(next), edges)
	if err != nil {
		log.Fatal(err)
	}
	return coarse, int(next)
}

func main() {
	g, err := dmgm.Grid2D(256, 256, true, 99)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("level 0: %v\n", g)

	level := 0
	for g.NumVertices() > 500 {
		level++
		// Parallel matching over 4 ranks drives the contraction.
		part, err := dmgm.PartitionBFS(g, 4, uint64(level))
		if err != nil {
			log.Fatal(err)
		}
		res, err := dmgm.Solve(g, part, dmgm.Job{Algorithm: dmgm.AlgoMatch})
		if err != nil {
			log.Fatal(err)
		}
		before := g.NumVertices()
		coarse, nc := contract(g, res.Mates)
		fmt.Printf("level %d: matched %d pairs (weight %.1f), %d -> %d vertices (%.2fx), %d edges\n",
			level, res.Mates.Cardinality(), res.Weight, before, nc,
			float64(before)/float64(nc), coarse.NumEdges())
		// A maximal matching halves the vertex count in the best case and
		// must always shrink a graph that still has edges.
		if nc >= before && g.NumEdges() > 0 {
			log.Fatal("coarsening made no progress")
		}
		g = coarse
	}
	fmt.Printf("final: %v after %d levels\n", g, level)
}
