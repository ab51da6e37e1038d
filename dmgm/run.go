package dmgm

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/matching"
	"repro/internal/mpi"
)

// Job algorithms: the "algorithm" field of a service request, and what the
// dmgm-match / dmgm-color binaries run when given -p.
const (
	AlgoMatch = "match"
	AlgoColor = "color"
	// AlgoJP is the Jones–Plassmann coloring baseline (dmgm-color -algo jp).
	AlgoJP = "jp"
)

// Job names one distributed run in the vocabulary the CLIs' flags and the
// daemon's request fields share. RunJob is the only place these names turn
// into kernel options.
type Job struct {
	// Algorithm is AlgoMatch, AlgoColor or AlgoJP.
	Algorithm string
	// NoBundle sends one protocol record per message (AlgoMatch; the
	// bundling ablation).
	NoBundle bool
	// Comm names the communication variant (AlgoColor; Distance2 has one
	// scheme and ignores it): neighbors | customized-all | broadcast.
	Comm string
	// Superstep is the superstep size s (AlgoColor).
	Superstep int
	// Distance2 selects the distance-2 variant (AlgoColor).
	Distance2 bool
	// Seed seeds the coloring tie-breaks and the JP priorities.
	Seed uint64
}

// JobResult is a verified run: the text serialization dmgm-match /
// dmgm-color write with -o and the daemon returns as "result", plus the
// summary numbers both print.
type JobResult struct {
	// Text is the matching (matching.WriteMates) or the coloring
	// (coloring.WriteColors).
	Text string

	// Matching summary.
	Weight          float64
	Cardinality     int
	OuterIterations int64

	// Coloring summary.
	Colors    int
	Rounds    int
	Conflicts int64

	// Messages and Bytes total the run's point-to-point traffic.
	Messages, Bytes int64
	// Elapsed is the wall time of the distributed run proper — kernel and
	// gather on the placement's shares — before verification and
	// serialization. Cutting the shares (Place) happened before RunJob and is
	// not in it.
	Elapsed time.Duration
}

// RunJob takes a job from its names to a verified text result on the given
// world: names → kernel options, the distributed run, the verifier that
// matches the job, the text serializer, the summary numbers. The CLIs, the
// daemon and the conformance reference all call it, which is what makes
// their results byte-identical for equal (graph, partition, job). Like the
// *World drivers it returns nil (and a nil error) on a process that does not
// host rank 0.
func RunJob(w *mpi.World, g *Graph, pl *Placement, job Job) (*JobResult, error) {
	if err := pl.cutFrom(g); err != nil {
		return nil, err
	}
	var (
		out     *JobResult
		verdict error
		write   func(io.Writer) error
		start   = time.Now()
	)
	switch job.Algorithm {
	case AlgoMatch:
		opt := MatchParallelOptions{}
		if job.NoBundle {
			opt.BundleBytes = matching.RecordBytes
		}
		res, err := matchPlaced(w, pl, opt)
		if err != nil || res == nil {
			return nil, err
		}
		out = &JobResult{
			Weight: res.Weight, Cardinality: res.Mates.Cardinality(), OuterIterations: res.OuterIterations,
			Messages: res.Messages, Bytes: res.Bytes, Elapsed: time.Since(start),
		}
		verdict = res.Mates.VerifyMaximal(g)
		write = func(w io.Writer) error { return matching.WriteMates(w, res.Mates) }
	case AlgoColor, AlgoJP:
		res, verify, err := runColor(w, pl, job)
		if err != nil || res == nil {
			return nil, err
		}
		out = &JobResult{
			Colors: res.NumColors, Rounds: res.Rounds, Conflicts: res.Conflicts,
			Messages: res.Messages, Bytes: res.Bytes, Elapsed: time.Since(start),
		}
		verdict = verify(g, res.Colors)
		write = func(w io.Writer) error { return coloring.WriteColors(w, res.Colors) }
	default:
		return nil, fmt.Errorf("dmgm: unknown algorithm %q: want %s | %s | %s", job.Algorithm, AlgoMatch, AlgoColor, AlgoJP)
	}
	if verdict != nil {
		return nil, fmt.Errorf("result verification: %w", verdict)
	}
	var sb strings.Builder
	if err := write(&sb); err != nil {
		return nil, err
	}
	out.Text = sb.String()
	return out, nil
}

// runColor runs the coloring kernel the job names and returns the verifier
// that matches it.
func runColor(w *mpi.World, pl *Placement, job Job) (*ColorParallelResult, func(*Graph, Colors) error, error) {
	if job.Algorithm == AlgoJP {
		res, err := colorDistributed(w, pl, func(c *mpi.Comm, d *dgraph.DistGraph) (*coloring.ParallelResult, error) {
			return coloring.JonesPlassmann(c, d, job.Seed, 0)
		})
		return res, VerifyColoring, err
	}
	mode, err := coloring.ParseCommMode(job.Comm)
	if err != nil {
		return nil, nil, err
	}
	opt := ColorParallelOptions{SuperstepSize: job.Superstep, CommMode: mode, Seed: job.Seed}
	if job.Distance2 {
		res, err := colorDistributed(w, pl, distance2(opt))
		return res, VerifyColoringDistance2, err
	}
	res, err := colorDistributed(w, pl, distance1(opt))
	return res, VerifyColoring, err
}
