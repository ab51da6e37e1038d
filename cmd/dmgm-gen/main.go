// Command dmgm-gen generates synthetic graphs in this repository's formats:
// the paper's five-point grids, circuit-simulation stand-ins, and the
// irregular families used by the quality studies.
//
// Usage:
//
//	dmgm-gen -kind grid -k1 1000 -k2 1000 -weighted -o grid.bin
//	dmgm-gen -kind circuit -k1 200 -k2 200 -taps 0.45 -o circuit.g
//	dmgm-gen -kind rmat -scale 16 -edgefactor 8 -o rmat.bin
//	dmgm-gen -kind er -n 100000 -m 400000 -o er.g
//	dmgm-gen -kind er -n 100000 -m 400000 -o er.dmgb
//	dmgm-gen -kind geometric -n 50000 -radius 0.01 -o geo.g
//
// The output format follows the extension (.dmgb or .bin: the DMGB binary
// codec; text otherwise). DMGB is the format the chunked upload path of
// dmgm-serve is built around — its header carries the graph fingerprint, so
// repeat uploads short-circuit.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	var (
		kind       = flag.String("kind", "grid", "grid | grid9 | grid3d | circuit | er | rmat | geometric")
		k1         = flag.Int("k1", 100, "grid rows / circuit die rows")
		k2         = flag.Int("k2", 100, "grid cols / circuit die cols")
		k3         = flag.Int("k3", 10, "grid3d depth")
		n          = flag.Int("n", 10000, "vertex count (er, geometric)")
		m          = flag.Int64("m", 40000, "edge draws (er)")
		scale      = flag.Int("scale", 12, "rmat scale (n = 2^scale)")
		edgeFactor = flag.Int("edgefactor", 8, "rmat edges per vertex")
		radius     = flag.Float64("radius", 0.02, "geometric connection radius")
		taps       = flag.Float64("taps", 0.45, "circuit taps per node")
		weighted   = flag.Bool("weighted", true, "assign random edge weights")
		seed       = flag.Uint64("seed", 1, "generator seed")
		out        = flag.String("o", "", "output path (.dmgb or .bin = DMGB binary, anything else = text); required")
		stats      = flag.Bool("stats", true, "print summary statistics")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "dmgm-gen: -o output path is required")
		os.Exit(2)
	}

	var (
		g   *graph.Graph
		err error
	)
	switch *kind {
	case "grid":
		g, err = gen.Grid2D(*k1, *k2, *weighted, *seed)
	case "grid9":
		g, err = gen.Grid2D9Point(*k1, *k2, *weighted, *seed)
	case "grid3d":
		g, err = gen.Grid3D(*k1, *k2, *k3, *weighted, *seed)
	case "circuit":
		g, err = gen.Circuit(*k1, *k2, *taps, *weighted, *seed)
	case "er":
		g, err = gen.ErdosRenyi(*n, *m, *weighted, *seed)
	case "rmat":
		g, err = gen.RMAT(*scale, *edgeFactor, *weighted, *seed)
	case "geometric":
		g, err = gen.Geometric(*n, *radius, *weighted, *seed)
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-gen: %v\n", err)
		os.Exit(1)
	}
	if err := graph.WriteFile(*out, g); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-gen: %v\n", err)
		os.Exit(1)
	}
	if *stats {
		fmt.Printf("%s: %s\n", *out, graph.Summarize(g))
	}
}
