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
//
// Everything that is not about coloring — the shared flags, -launch, reading
// and partitioning the graph, the world, tracing — is launch.CLI; the
// distributed run itself is dmgm.RunJob (DESIGN.md §9).
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/launch"
	"repro/internal/order"

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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := launch.NewCLI("dmgm-color", dmgm.AlgoColor, stdout, stderr)
	var (
		ordName  = c.Flags.String("order", "natural", "sequential ordering: natural | random | largest-first | smallest-last | incidence-degree | saturation-degree")
		algo     = c.Flags.String("algo", "speculative", "speculative | jp (distributed only)")
		noRefine = c.Flags.Bool("norefine", false, "unrefined multilevel (ParMETIS-like)")
		job      = &c.Job
	)
	c.Flags.IntVar(&job.Superstep, "superstep", job.Superstep, "superstep size s")
	c.Flags.StringVar(&job.Comm, "comm", job.Comm, "neighbors | customized-all | broadcast")
	c.Flags.BoolVar(&job.Distance2, "distance2", job.Distance2, "compute a distance-2 coloring (sequential or distributed)")
	return c.Main(args, func() error {
		switch *algo {
		case "speculative":
		case "jp":
			job.Algorithm = dmgm.AlgoJP
		default:
			return launch.Usagef("unknown -algo %q: want speculative | jp", *algo)
		}
		if c.Transport.Remote() && job.Algorithm == dmgm.AlgoJP {
			return launch.Usagef("-algo jp runs in-process only (no -transport tcp)")
		}
		g, err := c.ReadGraph()
		if err != nil {
			return err
		}
		lo, hi := coloring.Bounds(g)
		c.Info("chromatic bounds: [%d, %d]\n", lo, hi)
		if *c.P <= 1 {
			return sequential(c, g, *ordName)
		}
		part, err := c.Partition(g, "", *noRefine)
		if err != nil {
			return err
		}
		res, err := c.Run(g, part)
		if err != nil || res == nil {
			return err
		}
		// Jones–Plassmann differs only in name, and in having no conflicts to
		// report.
		name := "speculative-" + job.Comm
		header := fmt.Sprintf("speculative framework (distance2=%v), %d ranks, s=%d, comm=%s", job.Distance2, *c.P, job.Superstep, job.Comm)
		conflicts := fmt.Sprintf("conflicts: %d\n", res.Conflicts)
		if job.Algorithm == dmgm.AlgoJP {
			name, header, conflicts = "jones-plassmann", fmt.Sprintf("Jones-Plassmann, %d ranks", *c.P), ""
		}
		sum := summary{
			Algorithm: name, Ranks: *c.P,
			Colors: res.Colors, Rounds: res.Rounds, Conflicts: res.Conflicts,
			Messages: res.Messages, Bytes: res.Bytes,
		}
		text := fmt.Sprintf("algorithm: %s\ncolors: %d\nrounds: %d\n%smessages: %d (%d bytes)\n",
			header, res.Colors, res.Rounds, conflicts, res.Messages, res.Bytes)
		sum.ElapsedSeconds = res.Elapsed.Seconds()
		if err := c.Report(sum, fmt.Sprintf("%shost wall: %v\n", text, res.Elapsed)); err != nil {
			return err
		}
		return c.WriteOut(res.Text)
	})
}

// sequential is the -p 1 run: greedy over the chosen ordering, verified.
func sequential(c *launch.CLI, g *graph.Graph, ordName string) error {
	o, err := order.ParseOrdering(ordName)
	if err != nil {
		return launch.Usagef("%v", err)
	}
	start := time.Now()
	var col coloring.Colors
	if c.Job.Distance2 {
		col, err = coloring.GreedyDistance2(g, o, c.Job.Seed)
	} else {
		col, err = coloring.Greedy(g, o, c.Job.Seed)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if c.Job.Distance2 {
		err = coloring.VerifyDistance2(g, col)
	} else {
		err = col.Verify(g)
	}
	if err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	err = c.Report(summary{
		Algorithm: "sequential-greedy", Ranks: 1,
		Colors:         col.NumColors(),
		ElapsedSeconds: elapsed.Seconds(),
	}, fmt.Sprintf("algorithm: sequential greedy (distance2=%v), %s order\ncolors: %d\ntime: %v\n",
		c.Job.Distance2, o, col.NumColors(), elapsed))
	if err != nil {
		return err
	}
	var text strings.Builder
	if err := coloring.WriteColors(&text, col); err != nil {
		return err
	}
	return c.WriteOut(text.String())
}
