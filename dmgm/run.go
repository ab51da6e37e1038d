package dmgm

import (
	"errors"
	"fmt"
	"strconv"
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

// Params are a job's run parameters, spelled once: the JSON fields of a
// service request (docs/PROTOCOL.md §6) and the flags of dmgm-match /
// dmgm-color bind to them. A zero field takes its default in Job.Normalize.
type Params struct {
	// Seed seeds the partitioner, the coloring tie-breaks and the JP
	// priorities (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Superstep is the coloring superstep size s (default 1000).
	Superstep int `json:"superstep,omitempty"`
	// Comm selects the coloring communication variant: neighbors (default)
	// | customized-all | broadcast. Distance2 has one scheme and ignores it.
	Comm string `json:"comm,omitempty"`
	// Distance2 selects the distance-2 coloring variant (AlgoColor only).
	Distance2 bool `json:"distance2,omitempty"`
	// NoBundle sends one protocol record per message (AlgoMatch; the
	// bundling ablation).
	NoBundle bool `json:"no_bundle,omitempty"`
}

// Job names one distributed run in the vocabulary the CLIs' flags and the
// daemon's request fields share. Normalize is the one place its defaults and
// checks live, Key the one place its result-relevant names are spelled, and
// RunJob the only place they turn into kernel options.
type Job struct {
	// Algorithm is AlgoMatch, AlgoColor or AlgoJP.
	Algorithm string
	Params
}

// Normalize fills the defaults of j's zero parameters and refuses a job that
// cannot run, in the words the daemon answers 400 with. RunJob, the daemon's
// admission and the CLIs all call it.
func (j *Job) Normalize() error {
	switch j.Algorithm {
	case AlgoMatch, AlgoColor, AlgoJP:
	default:
		return fmt.Errorf("unknown algorithm %q: want %s | %s | %s", j.Algorithm, AlgoMatch, AlgoColor, AlgoJP)
	}
	if j.Seed == 0 {
		j.Seed = 1
	}
	if j.Superstep == 0 {
		j.Superstep = 1000
	}
	if j.Superstep < 0 {
		return fmt.Errorf("superstep must be positive, got %d", j.Superstep)
	}
	if j.Comm == "" {
		j.Comm = coloring.CommNeighbors.String()
	}
	if _, err := coloring.ParseCommMode(j.Comm); err != nil {
		return err
	}
	if j.Distance2 && j.Algorithm != AlgoColor {
		return errors.New("distance2 applies to color jobs only")
	}
	return nil
}

// Key names the algorithm of a normalized job and only the parameters it
// reads: two jobs with one key on one placement give one result. The
// matching reads no seed — a seeded partitioner's key carries it.
func (j Job) Key() string {
	switch {
	case j.Algorithm == AlgoMatch:
		return "match|nb=" + strconv.FormatBool(j.NoBundle)
	case j.Algorithm == AlgoJP:
		return "jp|s" + strconv.FormatUint(j.Seed, 10)
	case j.Distance2:
		return fmt.Sprintf("color|s%d|ss%d|d2", j.Seed, j.Superstep)
	}
	return fmt.Sprintf("color|s%d|ss%d|%s", j.Seed, j.Superstep, j.Comm)
}

// JobResult is a verified run: the gathered vector, the text serialization
// dmgm-match / dmgm-color write with -o and the daemon returns as "result",
// and the summary numbers both print. It is the one result type of every
// distributed run.
type JobResult struct {
	// Text is the matching (matching.WriteMates) or the coloring
	// (coloring.WriteColors).
	Text string

	// Matching: the gathered mates and their summary.
	Mates           Mates
	Weight          float64
	Cardinality     int
	OuterIterations int64

	// Coloring: the gathered colors and their summary; Colors counts them.
	Coloring  Colors
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

// Solve runs job on g cut by part with one goroutine rank per part: Place,
// then RunJob on a fresh in-process world, aborted after 10 minutes. It is
// the one-call form of a distributed run.
func Solve(g *Graph, part *Partition, job Job) (*JobResult, error) {
	pl, err := Place(g, part)
	if err != nil {
		return nil, err
	}
	w, err := mpi.NewWorld(part.P, mpi.WithDeadline(10*time.Minute))
	if err != nil {
		return nil, err
	}
	return RunJob(w, g, pl, job)
}

// RunJob takes a job from its names to a verified text result on the given
// world: Normalize, names → kernel options, the distributed run, the verifier
// that matches the job, the text serializer, the summary numbers. The CLIs,
// the daemon, Solve and the conformance suite all call it, which is what
// makes their results byte-identical for equal (graph, partition, job). It
// returns nil (and a nil error) on a process that does not host rank 0.
func RunJob(w *mpi.World, g *Graph, pl *Placement, job Job) (*JobResult, error) {
	if err := job.Normalize(); err != nil {
		return nil, err
	}
	if err := pl.cutFrom(g); err != nil {
		return nil, err
	}
	start := time.Now()
	if job.Algorithm == AlgoMatch {
		bundleBytes := 0
		if job.NoBundle {
			bundleBytes = matching.RecordBytes
		}
		out, err := matchPlaced(w, pl, bundleBytes)
		if err != nil || out == nil {
			return nil, err
		}
		out.Elapsed, out.Cardinality = time.Since(start), out.Mates.Cardinality()
		if err := out.Mates.VerifyMaximal(g); err != nil {
			return nil, fmt.Errorf("result verification: %w", err)
		}
		out.Text = string(matching.AppendMates(nil, out.Mates))
		return out, nil
	}
	kernel, verify := colorKernelFor(job)
	out, err := colorDistributed(w, pl, kernel)
	if err != nil || out == nil {
		return nil, err
	}
	out.Elapsed = time.Since(start)
	if err := verify(g, out.Coloring); err != nil {
		return nil, fmt.Errorf("result verification: %w", err)
	}
	out.Text = string(coloring.AppendColors(nil, out.Coloring))
	return out, nil
}

// colorKernelFor returns the coloring kernel a normalized color or jp job
// names and the verifier that matches it.
func colorKernelFor(job Job) (colorKernel, func(*Graph, Colors) error) {
	switch {
	case job.Algorithm == AlgoJP:
		return func(c *mpi.Comm, d *dgraph.DistGraph) (*coloring.ParallelResult, error) {
			return coloring.JonesPlassmann(c, d, job.Seed, 0)
		}, VerifyColoring
	case job.Distance2:
		return func(c *mpi.Comm, d *dgraph.DistGraph) (*coloring.ParallelResult, error) {
			return coloring.ParallelDistance2(c, d, coloring.ParallelOptions{SuperstepSize: job.Superstep, Seed: job.Seed})
		}, VerifyColoringDistance2
	}
	mode, _ := coloring.ParseCommMode(job.Comm) // Normalize checked it
	return distance1(coloring.ParallelOptions{SuperstepSize: job.Superstep, CommMode: mode, Seed: job.Seed}), VerifyColoring
}
