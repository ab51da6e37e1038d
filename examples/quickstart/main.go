// Quickstart: build a small weighted graph, match and color it sequentially,
// then run both distributed algorithms over four goroutine "processors" and
// check that the results agree with the paper's claims (identical matching
// weight at any rank count; a proper coloring with near-serial color count).
package main

import (
	"fmt"
	"log"

	"repro/dmgm"
)

func main() {
	fmt.Println(dmgm.String())

	// The paper's model problem: a five-point grid with random edge weights
	// (Section 5.1). 60x60 keeps this instant.
	g, err := dmgm.Grid2D(60, 60, true, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %v\n", g)

	// Sequential half-approximate matching by locally dominant edges.
	mates := dmgm.Match(g)
	if err := dmgm.VerifyMatching(g, mates); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential matching: weight %.2f, %d pairs\n",
		mates.Weight(g), mates.Cardinality())

	// Sequential greedy coloring with the smallest-last ordering: grids are
	// bipartite, so this finds the optimal 2 colors.
	colors, err := dmgm.Color(g, dmgm.OrderSmallestLast, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := dmgm.VerifyColoring(g, colors); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential coloring: %d colors\n", colors.NumColors())

	// Distribute the grid over a 2x2 processor grid — the paper's uniform
	// two-dimensional distribution.
	part, err := dmgm.PartitionGrid2D(60, 60, 2, 2)
	if err != nil {
		log.Fatal(err)
	}

	// Distributed matching: REQUEST/SUCCEEDED/FAILED protocol with message
	// bundling. The weight is identical to the sequential run — Section
	// 5.2's invariance observation.
	mres, err := dmgm.Solve(g, part, dmgm.Job{Algorithm: dmgm.AlgoMatch})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel matching (4 ranks): weight %.2f, %d outer iterations, %d messages\n",
		mres.Weight, mres.OuterIterations, mres.Messages)
	if mres.Weight != mates.Weight(g) && fmt.Sprintf("%.6f", mres.Weight) != fmt.Sprintf("%.6f", mates.Weight(g)) {
		log.Fatalf("weight changed under parallelism: %v vs %v", mres.Weight, mates.Weight(g))
	}

	// Distributed speculative coloring (Algorithm 4.1) with the paper's new
	// neighbor-customized communication.
	cres, err := dmgm.Solve(g, part, dmgm.Job{Algorithm: dmgm.AlgoColor, Params: dmgm.Params{Seed: 7}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel coloring (4 ranks): %d colors in %d rounds (%d conflicts resolved)\n",
		cres.Colors, cres.Rounds, cres.Conflicts)
}
