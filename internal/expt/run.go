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
	// under Blue Gene/P coefficients (see mpi.VirtualTime): the virtual
	// clocks honor compute/communication overlap, unlike the
	// bulk-synchronous analytic model.
	VirtualSeconds float64

	// Algorithm-specific outputs.
	MatchWeight float64
	NumColors   int
	Conflicts   int64
}

// MaxRank returns the heaviest rank profile.
func (m *Measurement) MaxRank() perfmodel.Profile {
	var out perfmodel.Profile
	var worst float64
	bg := perfmodel.BlueGeneP()
	for _, p := range m.Ranks {
		if t := bg.Time(p); t >= worst {
			worst = t
			out = p
		}
	}
	return out
}

// structuralProfile seeds a rank profile with the share's structure. It is
// used only when no run happened (SynthesizeProfiles); measured runs read the
// actual operation counts the algorithms charged into the observability
// registry instead (measuredProfile).
func structuralProfile(d *dgraph.DistGraph) perfmodel.Profile {
	return perfmodel.Profile{
		VertexOps: int64(d.NLocal),
		EdgeOps:   d.Xadj[d.NLocal],
	}
}

// measuredProfile reads rank r's compute profile from the registry the world
// populated during the run: mpi.vertex_ops / mpi.edge_ops carry exactly what
// the algorithm charged via ChargeOps (init scans, recomputations, bundle
// processing), which is what the α–β–γ model should price — not the static
// share structure the old seeding approximated it with.
func measuredProfile(reg *obs.Registry, p, r int) perfmodel.Profile {
	return perfmodel.Profile{
		VertexOps: reg.Vec("mpi.vertex_ops", p).At(r).Load(),
		EdgeOps:   reg.Vec("mpi.edge_ops", p).At(r).Load(),
	}
}

// vtimeOf converts machine-model coefficients into runtime virtual-time
// coefficients.
func vtimeOf(m perfmodel.Machine) mpi.VirtualTime {
	return mpi.VirtualTime{
		Alpha:       m.Alpha,
		Beta:        m.Beta,
		GammaVertex: m.GammaVertex,
		GammaEdge:   m.GammaEdge,
		Sync:        m.Sync,
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
	w, err := mpi.NewWorld(p, mpi.WithDeadline(10*time.Minute),
		mpi.WithVirtualTime(vtimeOf(perfmodel.BlueGeneP())),
		mpi.WithObserver(obsr))
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

// CommScalars are the per-structure traffic densities extracted from a
// measured run, used to synthesize profiles at rank counts the host cannot
// run. See EXPERIMENTS.md ("model methodology").
type CommScalars struct {
	// BytesPerCrossArc is sent bytes per cross arc.
	BytesPerCrossArc float64
	// MsgsPerNeighborEpoch is sent messages per (neighbor rank × epoch).
	MsgsPerNeighborEpoch float64
	// Epochs is the measured epoch count.
	Epochs int64
}

// ExtractCommScalars derives CommScalars from a measured run over shares.
func ExtractCommScalars(shares []*dgraph.DistGraph, m *Measurement) CommScalars {
	var bytes, msgs, cross, nbrEpochs float64
	for r, d := range shares {
		bytes += float64(m.Ranks[r].Bytes)
		msgs += float64(m.Ranks[r].Msgs)
		cross += float64(d.CrossArcs)
		nbrEpochs += float64(len(d.NeighborRanks)) * float64(m.Epochs)
	}
	cs := CommScalars{Epochs: m.Epochs}
	if cross > 0 {
		cs.BytesPerCrossArc = bytes / cross
	}
	if nbrEpochs > 0 {
		cs.MsgsPerNeighborEpoch = msgs / nbrEpochs
	}
	return cs
}

// SynthesizeProfiles builds model-input rank profiles for a structure-only
// distribution (no algorithm run), applying measured traffic densities.
func SynthesizeProfiles(shares []*dgraph.DistGraph, cs CommScalars, epochs int64) []perfmodel.Profile {
	out := make([]perfmodel.Profile, len(shares))
	for r, d := range shares {
		p := structuralProfile(d)
		p.Bytes = int64(cs.BytesPerCrossArc * float64(d.CrossArcs))
		p.Msgs = int64(cs.MsgsPerNeighborEpoch * float64(len(d.NeighborRanks)) * float64(epochs))
		p.Epochs = epochs
		out[r] = p
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
