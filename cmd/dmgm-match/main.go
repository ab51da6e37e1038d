// Command dmgm-match computes edge-weighted matchings: sequential locally
// dominant (default), sorted greedy, or the distributed algorithm with a
// chosen rank count, and reports weight, cardinality and traffic.
//
// Usage:
//
//	dmgm-match -in graph.bin                      # sequential ½-approx
//	dmgm-match -in graph.bin -p 16                # distributed over 16 ranks
//	dmgm-match -in graph.bin -p 16 -nobundle      # ablate message bundling
//	dmgm-match -in graph.bin -algo greedy
//	dmgm-match -in graph.bin -p 4 -launch         # 4 local processes over TCP
//	dmgm-match -in graph.bin -p 4 -transport tcp -rank 2 -registry host:9000
//	dmgm-match -in graph.bin -p 4 -launch -trace out.json   # Chrome trace
//	dmgm-match -in graph.bin -p 4 -json                     # machine-readable
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/graph"
	"repro/internal/launch"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/partition"

	"repro/dmgm"
)

// summary is the -json result record, one object on stdout.
type summary struct {
	Algorithm       string  `json:"algorithm"`
	Ranks           int     `json:"ranks"`
	Weight          float64 `json:"weight"`
	Cardinality     int     `json:"cardinality"`
	OuterIterations int64   `json:"outer_iterations,omitempty"`
	Messages        int64   `json:"messages"`
	Bytes           int64   `json:"bytes"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
}

func main() {
	tf := launch.RegisterFlags()
	of := obs.RegisterFlags()
	var (
		in       = flag.String("in", "", "input graph path (required)")
		algo     = flag.String("algo", "localdom", "localdom | greedy")
		p        = flag.Int("p", 1, "ranks for the distributed run (1 = sequential)")
		method   = flag.String("partition", "multilevel", "partitioner for p > 1: multilevel | bfs | block | random")
		partFile = flag.String("partfile", "", "load the partition from a file written by dmgm-part (overrides -partition and -p)")
		noBundle = flag.Bool("nobundle", false, "disable message bundling (ablation)")
		seed     = flag.Uint64("seed", 1, "seed")
		outPath  = flag.String("o", "", "write the matching to this file (verifiable with dmgm-verify)")
		jsonOut  = flag.Bool("json", false, "print the result summary as one JSON object on stdout (progress goes to stderr)")
	)
	flag.Parse()
	// With -json, stdout carries exactly one JSON object; narration moves to
	// stderr so `dmgm-match -json | jq` just works.
	info := infoPrinter(*jsonOut)
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dmgm-match: -in is required")
		os.Exit(2)
	}
	if tf.Launch {
		if *p <= 1 {
			fmt.Fprintln(os.Stderr, "dmgm-match: -launch needs -p > 1")
			os.Exit(2)
		}
		if of.OTLP != "" {
			// Resolve the run id before spawning workers: they inherit it via
			// the environment, so every shard exports into one OTLP trace.
			of.RunID()
		}
		code := launch.Local(*p, "launch")
		if err := of.Merge(*p); err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}
	if tf.Remote() && *p <= 1 {
		fmt.Fprintln(os.Stderr, "dmgm-match: -transport tcp needs -p > 1")
		os.Exit(2)
	}
	if of.Pprof != "" {
		addr, err := obs.ServePprof(of.PprofAddr(tf.Rank, tf.Remote()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", addr)
	}
	readStart := time.Now()
	g, err := graph.ReadFile(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", err)
		os.Exit(1)
	}
	info("input: %s\n", graph.Summarize(g))

	if *p <= 1 && *partFile == "" {
		start := time.Now()
		var m matching.Mates
		switch *algo {
		case "localdom":
			m = matching.LocallyDominant(g)
		case "greedy":
			m = matching.Greedy(g)
		default:
			fmt.Fprintf(os.Stderr, "dmgm-match: unknown algo %q\n", *algo)
			os.Exit(2)
		}
		elapsed := time.Since(start)
		if err := m.VerifyMaximal(g); err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-match: result verification failed: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			printJSON(summary{
				Algorithm: "sequential-" + *algo, Ranks: 1,
				Weight: m.Weight(g), Cardinality: m.Cardinality(),
				ElapsedSeconds: elapsed.Seconds(),
			})
		} else {
			fmt.Printf("algorithm: sequential %s\nweight: %.4f\ncardinality: %d\ntime: %v\n",
				*algo, m.Weight(g), m.Cardinality(), elapsed)
		}
		writeMates(*outPath, m)
		return
	}

	partStart := time.Now()
	var part *partition.Partition
	if *partFile != "" {
		part, err = partition.ReadFile(*partFile)
		if err == nil {
			err = part.Validate(g)
		}
		if err == nil {
			*p = part.P
		}
	} else {
		var partitioner partition.Partitioner
		if partitioner, err = partition.ByName(*method); err == nil {
			part, err = partitioner(g, *p, partition.MultilevelOptions{Seed: *seed})
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", err)
		os.Exit(1)
	}
	info("partition: %s\n", partition.Measure(g, part))

	obsr := of.NewObserver(part.P)
	// The observer is sized by the partition, so the driver-side phases that
	// preceded it are recorded retroactively.
	obsr.Driver().Observe("driver.read_graph", readStart, int64(g.NumVertices()))
	obsr.Driver().Observe("driver.partition", partStart, int64(part.P))

	opt := dmgm.MatchParallelOptions{}
	if *noBundle {
		opt.BundleBytes = 17 // one protocol record per message
	}
	w, err := tf.World(part.P, mpi.WithDeadline(10*time.Minute), mpi.WithObserver(obsr))
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", err)
		os.Exit(1)
	}
	if of.HTTP != "" {
		addr, err := obs.ServeLive(of.HTTPAddr(tf.Rank, tf.Remote()), w.LiveSnapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "live: http://%s/snapshot (watch with: dmgm-trace -watch %s)\n", addr, addr)
	}
	start := time.Now()
	res, err := dmgm.MatchParallelWorld(w, g, part, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	if werr := of.Write(obsr, w.LocalRanks(), tf.Rank, tf.Remote()); werr != nil {
		fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", werr)
		os.Exit(1)
	}
	if oerr := of.ExportOTLP(obsr, w.LocalRanks(), part.P); oerr != nil {
		// Export is best-effort: warn, never fail the run.
		fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", oerr)
	}
	if res == nil {
		// A tcp worker that does not host rank 0: the gathered result lives
		// on rank 0's process, this one just reports completion.
		info("rank %d: done in %v\n", tf.Rank, elapsed)
		return
	}
	if err := res.Mates.VerifyMaximal(g); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-match: result verification failed: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		printJSON(summary{
			Algorithm: "distributed-localdom", Ranks: *p,
			Weight: res.Weight, Cardinality: res.Mates.Cardinality(),
			OuterIterations: res.OuterIterations,
			Messages:        res.Messages, Bytes: res.Bytes,
			ElapsedSeconds: elapsed.Seconds(),
		})
	} else {
		fmt.Printf("algorithm: distributed locally-dominant, %d ranks (bundling %v)\n", *p, !*noBundle)
		fmt.Printf("weight: %.4f\ncardinality: %d\nouter iterations: %d\nmessages: %d (%d bytes)\nhost wall: %v\n",
			res.Weight, res.Mates.Cardinality(), res.OuterIterations, res.Messages, res.Bytes, elapsed)
	}
	writeMates(*outPath, res.Mates)
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
		fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", err)
		os.Exit(1)
	}
}

// writeMates saves the matching when an output path was given.
func writeMates(path string, m matching.Mates) {
	if path == "" {
		return
	}
	if err := matching.WriteMatesFile(path, m); err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-match: %v\n", err)
		os.Exit(1)
	}
}
