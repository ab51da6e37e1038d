package expt

import (
	"fmt"
	"math"
	"time"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// Measurement is the outcome of one distributed run at one rank count.
type Measurement struct {
	P        int
	WallHost time.Duration // host wall clock (1-core laptop: reference only)
	Ranks    []perfmodel.Profile
	Epochs   int64 // outer iterations (matching) or rounds (coloring), max over ranks
	// VirtualSeconds is the LogP-style asynchronous simulation makespan
	// under Blue Gene/P coefficients (see mpi.WithVirtualTime): the virtual
	// clocks honor compute/communication overlap, unlike the
	// bulk-synchronous analytic model.
	VirtualSeconds float64

	// Traffic is the run's traffic summed over ranks: the totals every
	// table prints, and their split by tag family.
	Traffic mpi.Stats

	// Algorithm-specific outputs.
	MatchWeight float64
	Records     int64 // protocol records the matching kernels count as sent
	NumColors   int
	Conflicts   int64
}

// measuredProfile reads rank r's compute profile from the registry the world
// populated during the run: mpi.vertex_ops / mpi.edge_ops carry exactly what
// the algorithm charged via ChargeOps (init scans, recomputations, bundle
// processing), which is what the α–β–γ model should price — not the static
// share structure that stands in for it where no run happened (rankStructure).
func measuredProfile(reg *obs.Registry, p, r int) perfmodel.Profile {
	return perfmodel.Profile{
		VertexOps: reg.Vec("mpi.vertex_ops", p).At(r).Load(),
		EdgeOps:   reg.Vec("mpi.edge_ops", p).At(r).Load(),
	}
}

// measure is the one measured run of this package: kernel on every rank of
// a fresh world over pre-built shares (shares[r] must be rank r's view of one
// common graph), under virtual time and a metrics-only observer, with each
// rank's profile read back afterwards. epochs extracts a rank's epoch count
// from its result; the per-rank results come back for whatever else the
// caller totals.
func measure[R any](shares []*dgraph.DistGraph, kernel func(*mpi.Comm, *dgraph.DistGraph) (R, error), epochs func(R) int64) (*Measurement, []R, error) {
	p := len(shares)
	obsr := obs.NewObserver(p, -1) // metrics only: op counters for the profiles
	w, err := mpi.NewWorld(p, mpi.WithVirtualTime(perfmodel.BlueGeneP()), mpi.WithObserver(obsr))
	if err != nil {
		return nil, nil, err
	}
	results := make([]R, p) // each rank writes its own element
	start := time.Now()
	err = w.Run(func(c *mpi.Comm) (err error) {
		results[c.Rank()], err = kernel(c, shares[c.Rank()])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	m := &Measurement{P: p, WallHost: time.Since(start), Ranks: make([]perfmodel.Profile, p)}
	m.VirtualSeconds = w.MaxVirtualTime()
	m.Traffic = w.TotalStats()
	for r := 0; r < p; r++ {
		prof := measuredProfile(obsr.Registry(), p, r)
		st := w.RankStats(r)
		prof.Msgs = st.SentMsgs
		prof.Bytes = st.SentBytes
		prof.Epochs = epochs(results[r])
		m.Ranks[r] = prof
		if prof.Epochs > m.Epochs {
			m.Epochs = prof.Epochs
		}
	}
	return m, results, nil
}

// MeasureMatching runs the distributed matching over pre-built shares and
// collects profiles.
func MeasureMatching(shares []*dgraph.DistGraph, opt matching.ParallelOptions) (*Measurement, error) {
	m, results, err := measure(shares,
		func(c *mpi.Comm, d *dgraph.DistGraph) (*matching.ParallelResult, error) {
			return matching.Parallel(c, d, opt)
		},
		func(r *matching.ParallelResult) int64 { return r.OuterIterations })
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		m.MatchWeight += r.LocalWeight
		m.Records += r.Records
	}
	return m, nil
}

// MeasureColoring runs the distributed coloring over pre-built shares.
func MeasureColoring(shares []*dgraph.DistGraph, opt coloring.ParallelOptions) (*Measurement, error) {
	m, _, err := measureColoring(shares, func(c *mpi.Comm, d *dgraph.DistGraph) (*coloring.ParallelResult, error) {
		return coloring.Parallel(c, d, opt)
	})
	return m, err
}

// measureColoring measures any kernel that colors — the speculative
// framework or the Jones–Plassmann baseline.
func measureColoring(shares []*dgraph.DistGraph, kernel func(*mpi.Comm, *dgraph.DistGraph) (*coloring.ParallelResult, error)) (*Measurement, []*coloring.ParallelResult, error) {
	m, results, err := measure(shares, kernel, func(r *coloring.ParallelResult) int64 { return int64(r.Rounds) })
	if err != nil {
		return nil, nil, err
	}
	for _, r := range results {
		m.Conflicts += r.Conflicts
	}
	m.NumColors = results[0].NumColors
	return m, results, nil
}

// rankStructure is what the model knows of one rank's share without a run:
// owned vertices, stored arcs, cross arcs and neighbor ranks.
type rankStructure struct {
	nLocal      int
	arcs, cross int64
	nbrs        int
}

// structureOf reads the structure off built shares.
func structureOf(shares []*dgraph.DistGraph) []rankStructure {
	out := make([]rankStructure, len(shares))
	for r, d := range shares {
		out[r] = rankStructure{d.NLocal, d.Xadj[d.NLocal], d.CrossArcs, len(d.NeighborRanks)}
	}
	return out
}

// cutFraction is the share of edges that cross ranks: every cut edge is one
// cross arc on each side, every edge two stored arcs.
func cutFraction(st []rankStructure) float64 {
	var arcs, cross int64
	for _, s := range st {
		arcs += s.arcs
		cross += s.cross
	}
	if arcs == 0 {
		return 0
	}
	return float64(cross) / float64(arcs)
}

// CommScalars are the per-structure traffic densities extracted from a
// measured run, used to synthesize profiles at rank counts the host cannot
// run. See EXPERIMENTS.md ("model methodology").
type CommScalars struct {
	// BytesPerCrossArc is sent bytes per cross arc.
	BytesPerCrossArc float64
	// MsgsPerNeighborEpoch is sent messages per (neighbor rank × epoch).
	MsgsPerNeighborEpoch float64
}

// commScalarsOf derives CommScalars from a measured run over shares of
// structure st.
func commScalarsOf(st []rankStructure, m *Measurement) CommScalars {
	var cross, nbrs float64
	for _, s := range st {
		cross += float64(s.cross)
		nbrs += float64(s.nbrs)
	}
	var cs CommScalars
	if cross > 0 {
		cs.BytesPerCrossArc = float64(m.Traffic.SentBytes) / cross
	}
	if nbrEpochs := nbrs * float64(m.Epochs); nbrEpochs > 0 {
		cs.MsgsPerNeighborEpoch = float64(m.Traffic.SentMsgs) / nbrEpochs
	}
	return cs
}

// profiles prices a structure-only distribution (no algorithm run) at the
// measured traffic densities: the model's input at rank counts the host
// cannot run.
func (cs CommScalars) profiles(st []rankStructure, epochs int64) []perfmodel.Profile {
	out := make([]perfmodel.Profile, len(st))
	for r, s := range st {
		out[r] = perfmodel.Profile{
			VertexOps: int64(s.nLocal),
			EdgeOps:   s.arcs,
			Msgs:      int64(cs.MsgsPerNeighborEpoch * float64(s.nbrs) * float64(epochs)),
			Bytes:     int64(cs.BytesPerCrossArc * float64(s.cross)),
			Epochs:    epochs,
		}
	}
	return out
}

// FitLogTrend fits y = a + b·ln(p) over measured points by least squares and
// returns an evaluator clamped to be at least minY. It extrapolates slowly
// growing quantities such as matching outer-iteration counts.
func FitLogTrend(ps []int, ys []float64, minY float64) func(p int) float64 {
	n := float64(len(ps))
	if n == 0 {
		return func(int) float64 { return minY }
	}
	var sx, sy, sxx, sxy float64
	for i, p := range ps {
		x := math.Log(float64(p))
		sx += x
		sy += ys[i]
		sxx += x * x
		sxy += x * ys[i]
	}
	denom := n*sxx - sx*sx
	var a, b float64
	if denom == 0 {
		a, b = sy/n, 0
	} else {
		b = (n*sxy - sx*sy) / denom
		a = (sy - b*sx) / n
	}
	return func(p int) float64 {
		y := a + b*math.Log(float64(p))
		if y < minY {
			return minY
		}
		return y
	}
}

// checkPositive validates harness parameters.
func checkPositive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("expt: %s must be positive, got %d", name, v)
	}
	return nil
}
