// Command dmgm-match computes edge-weighted matchings: sequential locally
// dominant, or the distributed algorithm with a chosen rank count, and
// reports weight, cardinality and traffic.
//
// Usage:
//
//	dmgm-match -in graph.bin                      # sequential ½-approx
//	dmgm-match -in graph.bin -p 16                # distributed over 16 ranks
//	dmgm-match -in graph.bin -p 16 -nobundle      # ablate message bundling
//	dmgm-match -in graph.bin -p 4 -launch         # 4 local processes over TCP
//	dmgm-match -in graph.bin -p 4 -transport tcp -rank 2 -registry host:9000
//	dmgm-match -in graph.bin -p 4 -launch -trace out.json   # Chrome trace
//	dmgm-match -in graph.bin -p 4 -json                     # machine-readable
//
// Everything that is not about matching — the shared flags, -launch, reading
// and partitioning the graph, the world, tracing — is launch.CLI; the
// distributed run itself is dmgm.RunJob (DESIGN.md §9).
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/launch"
	"repro/internal/matching"

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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := launch.NewCLI("dmgm-match", dmgm.AlgoMatch, stdout, stderr)
	partFile := c.Flags.String("partfile", "", "load the partition from a file written by dmgm-part (overrides -partition and -p)")
	c.Flags.BoolVar(&c.Job.NoBundle, "nobundle", c.Job.NoBundle, "disable message bundling (ablation)")
	return c.Main(args, func() error {
		g, err := c.ReadGraph()
		if err != nil {
			return err
		}
		if *c.P <= 1 && *partFile == "" {
			return sequential(c, g)
		}
		part, err := c.Partition(g, *partFile, false)
		if err != nil {
			return err
		}
		res, err := c.Run(g, part)
		if err != nil || res == nil {
			return err
		}
		err = c.Report(summary{
			Algorithm: "distributed-localdom", Ranks: *c.P,
			Weight: res.Weight, Cardinality: res.Cardinality,
			OuterIterations: res.OuterIterations,
			Messages:        res.Messages, Bytes: res.Bytes,
			ElapsedSeconds: res.Elapsed.Seconds(),
		}, fmt.Sprintf("algorithm: distributed locally-dominant, %d ranks (bundling %v)\n"+
			"weight: %.4f\ncardinality: %d\nouter iterations: %d\nmessages: %d (%d bytes)\nhost wall: %v\n",
			*c.P, !c.Job.NoBundle, res.Weight, res.Cardinality, res.OuterIterations, res.Messages, res.Bytes, res.Elapsed))
		if err != nil {
			return err
		}
		return c.WriteOut(res.Text)
	})
}

// sequential is the -p 1 run: the locally-dominant matching, verified.
func sequential(c *launch.CLI, g *graph.Graph) error {
	start := time.Now()
	m := matching.LocallyDominant(g)
	elapsed := time.Since(start)
	if err := m.VerifyMaximal(g); err != nil {
		return fmt.Errorf("result verification failed: %w", err)
	}
	err := c.Report(summary{
		Algorithm: "sequential-localdom", Ranks: 1,
		Weight: m.Weight(g), Cardinality: m.Cardinality(),
		ElapsedSeconds: elapsed.Seconds(),
	}, fmt.Sprintf("algorithm: sequential localdom\nweight: %.4f\ncardinality: %d\ntime: %v\n",
		m.Weight(g), m.Cardinality(), elapsed))
	if err != nil {
		return err
	}
	var text strings.Builder
	if err := matching.WriteMates(&text, m); err != nil {
		return err
	}
	return c.WriteOut(text.String())
}
