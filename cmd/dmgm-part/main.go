// Command dmgm-part partitions a graph file over p processors and reports
// the quality metrics that govern the paper's experiments (edge cut, balance,
// boundary fraction).
//
// Usage:
//
//	dmgm-part -in graph.bin -p 64 -method multilevel
//	dmgm-part -in graph.g -p 1024 -method multilevel -norefine   # ParMETIS-like
//	dmgm-part -in graph.g -p 16 -method bfs -o parts.txt   # reusable via dmgm-match/-color -partfile
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/partition"
)

func main() {
	var (
		in       = flag.String("in", "", "input graph path (required)")
		p        = flag.Int("p", 16, "number of parts")
		method   = flag.String("method", "multilevel", "multilevel | bfs | block | random")
		noRefine = flag.Bool("norefine", false, "disable multilevel refinement (ParMETIS-like quality)")
		seed     = flag.Uint64("seed", 1, "seed")
		out      = flag.String("o", "", "optional output: one part id per line")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dmgm-part: -in is required")
		os.Exit(2)
	}
	g, err := graph.ReadFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-part: %v\n", err)
		os.Exit(1)
	}
	var part *partition.Partition
	partitioner, err := partition.ByName(*method)
	if err == nil {
		part, err = partitioner(g, *p, partition.MultilevelOptions{Seed: *seed, NoRefine: *noRefine})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-part: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(partition.Measure(g, part))
	if *out != "" {
		if err := partition.WriteFile(*out, part); err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-part: %v\n", err)
			os.Exit(1)
		}
	}
}
