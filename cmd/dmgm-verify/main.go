// Command dmgm-verify independently checks results produced by dmgm-match
// and dmgm-color (or any tool emitting the same text formats) against a
// graph: matching validity/maximality and weight, coloring properness
// (distance-1 or distance-2) and color count against the chromatic bounds.
//
// Usage:
//
//	dmgm-verify -graph g.bin -matching m.txt
//	dmgm-verify -graph g.bin -coloring c.txt
//	dmgm-verify -graph g.bin -coloring c.txt -distance2
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/matching"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file (required)")
		matchPath = flag.String("matching", "", "matching file to verify")
		colorPath = flag.String("coloring", "", "coloring file to verify")
		distance2 = flag.Bool("distance2", false, "verify the coloring at distance 2")
	)
	flag.Parse()
	if *graphPath == "" || (*matchPath == "" && *colorPath == "") {
		fmt.Fprintln(os.Stderr, "dmgm-verify: need -graph and one of -matching / -coloring")
		os.Exit(2)
	}
	g, err := graph.ReadFile(*graphPath)
	if err != nil {
		fail(err)
	}
	if err := g.Validate(); err != nil {
		fail(fmt.Errorf("graph invalid: %w", err))
	}
	fmt.Printf("graph: %s\n", graph.Summarize(g))

	if *matchPath != "" {
		m, err := matching.ReadMatesFile(*matchPath, g.NumVertices())
		if err != nil {
			fail(err)
		}
		if err := m.Verify(g); err != nil {
			fail(err)
		}
		maximal := "maximal"
		if err := m.VerifyMaximal(g); err != nil {
			maximal = "NOT maximal"
		}
		fmt.Printf("matching: VALID, %s, weight %.4f, cardinality %d\n",
			maximal, m.Weight(g), m.Cardinality())
	}
	if *colorPath != "" {
		c, err := coloring.ReadColorsFile(*colorPath)
		if err != nil {
			fail(err)
		}
		if *distance2 {
			if err := coloring.VerifyDistance2(g, c); err != nil {
				fail(err)
			}
		} else if err := c.Verify(g); err != nil {
			fail(err)
		}
		lo, hi := coloring.Bounds(g)
		kind := "distance-1"
		if *distance2 {
			kind = "distance-2"
		}
		fmt.Printf("coloring: VALID %s, %d colors (distance-1 bounds [%d, %d])\n",
			kind, c.NumColors(), lo, hi)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dmgm-verify: FAILED: %v\n", err)
	os.Exit(1)
}
