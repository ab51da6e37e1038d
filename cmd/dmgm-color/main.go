// Command dmgm-color computes distance-1 vertex colorings: sequential greedy
// over any ordering, the distributed speculative framework (FIAB / FIAC /
// neighbor-customized), or the Jones–Plassmann baseline.
//
// Usage:
//
//	dmgm-color -in graph.bin -order smallest-last
//	dmgm-color -in graph.bin -p 16 -superstep 1000 -comm neighbors
//	dmgm-color -in graph.bin -p 16 -algo jp
//	dmgm-color -in graph.bin -p 4 -launch        # 4 local processes over TCP
//	dmgm-color -in graph.bin -p 4 -transport tcp -rank 2 -registry host:9000
//	dmgm-color -in graph.bin -p 4 -launch -trace out.json   # Chrome trace
//	dmgm-color -in graph.bin -p 4 -json                     # machine-readable
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/launch"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/partition"

	"repro/dmgm"
)

// summary is the -json result record, one object on stdout.
type summary struct {
	Algorithm      string  `json:"algorithm"`
	Ranks          int     `json:"ranks"`
	Colors         int     `json:"colors"`
	Rounds         int     `json:"rounds,omitempty"`
	Conflicts      int64   `json:"conflicts,omitempty"`
	Messages       int64   `json:"messages"`
	Bytes          int64   `json:"bytes"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

func main() {
	tf := launch.RegisterFlags()
	of := obs.RegisterFlags()
	var (
		in        = flag.String("in", "", "input graph path (required)")
		ordName   = flag.String("order", "natural", "sequential ordering: natural | random | largest-first | smallest-last | incidence-degree | saturation-degree")
		p         = flag.Int("p", 1, "ranks for the distributed run (1 = sequential)")
		algo      = flag.String("algo", "speculative", "speculative | jp (distributed only)")
		method    = flag.String("partition", "multilevel", "partitioner: multilevel | bfs | block | random")
		noRefine  = flag.Bool("norefine", false, "unrefined multilevel (ParMETIS-like)")
		superstep = flag.Int("superstep", 1000, "superstep size s")
		comm      = flag.String("comm", "neighbors", "neighbors | customized-all | broadcast")
		seed      = flag.Uint64("seed", 1, "seed")
		outPath   = flag.String("o", "", "write the coloring to this file (verifiable with dmgm-verify)")
		distance2 = flag.Bool("distance2", false, "compute a distance-2 coloring (sequential or distributed)")
		jsonOut   = flag.Bool("json", false, "print the result summary as one JSON object on stdout (progress goes to stderr)")
	)
	flag.Parse()
	// With -json, stdout carries exactly one JSON object; narration moves to
	// stderr so `dmgm-color -json | jq` just works.
	info := infoPrinter(*jsonOut)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dmgm-color: -in is required")
		os.Exit(2)
	}
	if (tf.Remote() || tf.Launch) && *algo == "jp" {
		fmt.Fprintln(os.Stderr, "dmgm-color: -algo jp runs in-process only (no -transport tcp)")
		os.Exit(2)
	}
	if tf.Launch {
		if *p <= 1 {
			fmt.Fprintln(os.Stderr, "dmgm-color: -launch needs -p > 1")
			os.Exit(2)
		}
		if of.OTLP != "" {
			// Resolve the run id before spawning workers: they inherit it via
			// the environment, so every shard exports into one OTLP trace.
			of.RunID()
		}
		code := launch.Local(*p, "launch")
		if err := of.Merge(*p); err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}
	if tf.Remote() && *p <= 1 {
		fmt.Fprintln(os.Stderr, "dmgm-color: -transport tcp needs -p > 1")
		os.Exit(2)
	}
	if of.Pprof != "" {
		addr, err := obs.ServePprof(of.PprofAddr(tf.Rank, tf.Remote()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", addr)
	}
	readStart := time.Now()
	g, err := graph.ReadFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
		os.Exit(1)
	}
	info("input: %s\n", graph.Summarize(g))
	lo, hi := coloring.Bounds(g)
	info("chromatic bounds: [%d, %d]\n", lo, hi)

	if *p <= 1 {
		o, err := order.ParseOrdering(*ordName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
			os.Exit(2)
		}
		start := time.Now()
		var c coloring.Colors
		if *distance2 {
			c, err = coloring.GreedyDistance2(g, o, *seed)
		} else {
			c, err = coloring.Greedy(g, o, *seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if *distance2 {
			err = coloring.VerifyDistance2(g, c)
		} else {
			err = c.Verify(g)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-color: verification failed: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			printJSON(summary{
				Algorithm: "sequential-greedy", Ranks: 1,
				Colors:         c.NumColors(),
				ElapsedSeconds: elapsed.Seconds(),
			})
		} else {
			fmt.Printf("algorithm: sequential greedy (distance2=%v), %s order\ncolors: %d\ntime: %v\n",
				*distance2, o, c.NumColors(), elapsed)
		}
		writeColors(*outPath, c)
		return
	}

	partStart := time.Now()
	var part *partition.Partition
	partitioner, err := partition.ByName(*method)
	if err == nil {
		part, err = partitioner(g, *p, partition.MultilevelOptions{Seed: *seed, NoRefine: *noRefine})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
		os.Exit(1)
	}
	info("partition: %s\n", partition.Measure(g, part))

	if *algo == "jp" {
		runJP(g, part, *seed, *jsonOut)
		return
	}
	mode, err := coloring.ParseCommMode(*comm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
		os.Exit(2)
	}
	obsr := of.NewObserver(part.P)
	// The observer is sized by the partition, so the driver-side phases that
	// preceded it are recorded retroactively.
	obsr.Driver().Observe("driver.read_graph", readStart, int64(g.NumVertices()))
	obsr.Driver().Observe("driver.partition", partStart, int64(part.P))

	w, err := tf.World(part.P, mpi.WithDeadline(10*time.Minute), mpi.WithObserver(obsr))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
		os.Exit(1)
	}
	if of.HTTP != "" {
		addr, err := obs.ServeLive(of.HTTPAddr(tf.Rank, tf.Remote()), w.LiveSnapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "live: http://%s/snapshot (watch with: dmgm-trace -watch %s)\n", addr, addr)
	}
	start := time.Now()
	// The distance-2 variant has one communication scheme and ignores CommMode.
	opt := dmgm.ColorParallelOptions{SuperstepSize: *superstep, CommMode: mode, Seed: *seed}
	var res *dmgm.ColorParallelResult
	if *distance2 {
		res, err = dmgm.ColorParallelDistance2World(w, g, part, opt)
	} else {
		res, err = dmgm.ColorParallelWorld(w, g, part, opt)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if werr := of.Write(obsr, w.LocalRanks(), tf.Rank, tf.Remote()); werr != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", werr)
		os.Exit(1)
	}
	if oerr := of.ExportOTLP(obsr, w.LocalRanks(), part.P); oerr != nil {
		// Export is best-effort: warn, never fail the run.
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", oerr)
	}
	if res == nil {
		// A tcp worker that does not host rank 0: the gathered result lives
		// on rank 0's process, this one just reports completion.
		info("rank %d: done in %v\n", tf.Rank, elapsed)
		return
	}
	if *distance2 {
		err = coloring.VerifyDistance2(g, res.Colors)
	} else {
		err = res.Colors.Verify(g)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: verification failed: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		printJSON(summary{
			Algorithm: "speculative-" + mode.String(), Ranks: *p,
			Colors: res.NumColors, Rounds: res.Rounds, Conflicts: res.Conflicts,
			Messages: res.Messages, Bytes: res.Bytes,
			ElapsedSeconds: elapsed.Seconds(),
		})
	} else {
		fmt.Printf("algorithm: speculative framework (distance2=%v), %d ranks, s=%d, comm=%s\n", *distance2, *p, *superstep, mode)
		fmt.Printf("colors: %d\nrounds: %d\nconflicts: %d\nmessages: %d (%d bytes)\nhost wall: %v\n",
			res.NumColors, res.Rounds, res.Conflicts, res.Messages, res.Bytes, elapsed)
	}
	writeColors(*outPath, res.Colors)
}

// infoPrinter routes narration to stdout normally, stderr under -json.
func infoPrinter(jsonOut bool) func(format string, args ...any) {
	w := os.Stdout
	if jsonOut {
		w = os.Stderr
	}
	return func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
		os.Exit(1)
	}
}

// writeColors saves the coloring when an output path was given.
func writeColors(path string, c coloring.Colors) {
	if path == "" {
		return
	}
	if err := coloring.WriteColorsFile(path, c); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
		os.Exit(1)
	}
}

func runJP(g *graph.Graph, part *partition.Partition, seed uint64, jsonOut bool) {
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
		os.Exit(1)
	}
	results := make([]*coloring.ParallelResult, part.P)
	var mu sync.Mutex
	start := time.Now()
	err = mpi.Run(part.P, func(c *mpi.Comm) error {
		res, err := coloring.JonesPlassmann(c, shares[c.Rank()], seed, 0)
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	}, mpi.WithDeadline(10*time.Minute))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	colors, err := coloring.Gather(shares, results)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: %v\n", err)
		os.Exit(1)
	}
	if err := colors.Verify(g); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-color: verification failed: %v\n", err)
		os.Exit(1)
	}
	if jsonOut {
		printJSON(summary{
			Algorithm: "jones-plassmann", Ranks: part.P,
			Colors: results[0].NumColors, Rounds: results[0].Rounds,
			ElapsedSeconds: elapsed.Seconds(),
		})
		return
	}
	fmt.Printf("algorithm: Jones-Plassmann, %d ranks\ncolors: %d\nrounds: %d\nhost wall: %v\n",
		part.P, results[0].NumColors, results[0].Rounds, elapsed)
}
