// Package perfmodel predicts distributed run times with a classic α–β–γ
// machine model, standing in for the IBM Blue Gene/P the paper measured on.
// The reproduction cannot run 16,384 MPI ranks, so each figure's harness
// (see internal/expt) measures the real algorithm at laptop scale, calibrates
// the model's compute rate γ against those measurements, and then evaluates
// the model at the paper's processor counts to extend the weak/strong scaling
// series. The communication terms are driven by the per-rank message and
// byte counters that the mpi runtime records — i.e. by the algorithm's real
// traffic profile, not by assumption.
//
//	T(rank) = γv·vertexOps + γe·edgeOps + α·msgs + β·bytes + σ·epochs
//	T(run)  = max over ranks T(rank)
package perfmodel

import "fmt"

// Machine holds the model coefficients, all in seconds (per unit).
type Machine struct {
	Name string
	// Alpha is the per-message latency (MPI overhead + network).
	Alpha float64
	// Beta is the per-byte transfer cost (inverse link bandwidth).
	Beta float64
	// GammaVertex and GammaEdge are per-operation compute costs.
	GammaVertex float64
	GammaEdge   float64
	// Sync is the cost of one synchronization epoch (barrier/allreduce),
	// counted once per epoch regardless of rank count (BG/P had a dedicated
	// collective network with near-constant barrier latency).
	Sync float64
}

// BlueGeneP returns coefficients for an IBM Blue Gene/P node: 850 MHz
// PowerPC 450 cores (a few ns per graph operation once memory effects are
// folded in), ~3 μs MPI latency, ~375 MB/s per-link bandwidth, and ~2 μs
// collective-network barriers.
func BlueGeneP() Machine {
	return Machine{
		Name:        "BlueGene/P",
		Alpha:       3.0e-6,
		Beta:        2.7e-9,
		GammaVertex: 12e-9,
		GammaEdge:   9e-9,
		Sync:        2.0e-6,
	}
}

// Profile aggregates one rank's work in one run (or one phase).
type Profile struct {
	VertexOps int64 // per-vertex operations (initializations, scans)
	EdgeOps   int64 // edge traversals
	Msgs      int64 // messages sent
	Bytes     int64 // bytes sent
	Epochs    int64 // synchronization epochs participated in
}

// Time evaluates the model for one rank profile.
func (m Machine) Time(p Profile) float64 {
	return float64(p.VertexOps)*m.GammaVertex +
		float64(p.EdgeOps)*m.GammaEdge +
		float64(p.Msgs)*m.Alpha +
		float64(p.Bytes)*m.Beta +
		float64(p.Epochs)*m.Sync
}

// RunTime evaluates the model over all ranks: the slowest rank defines the
// run (bulk-synchronous bound).
func (m Machine) RunTime(ranks []Profile) float64 {
	var worst float64
	for _, p := range ranks {
		if t := m.Time(p); t > worst {
			worst = t
		}
	}
	return worst
}

// Calibrate returns a copy of m with the compute coefficients scaled so that
// the model reproduces a measured single-rank (or max-rank) time for the
// given profile. Communication coefficients are left untouched — they model
// the target machine, not the host — so calibration transfers the host's
// measured compute density onto the modeled machine's network.
func (m Machine) Calibrate(p Profile, measuredSeconds float64) (Machine, error) {
	compute := float64(p.VertexOps)*m.GammaVertex + float64(p.EdgeOps)*m.GammaEdge
	if compute <= 0 {
		return m, fmt.Errorf("perfmodel: profile has no compute to calibrate against")
	}
	comm := float64(p.Msgs)*m.Alpha + float64(p.Bytes)*m.Beta + float64(p.Epochs)*m.Sync
	target := measuredSeconds - comm
	if target <= 0 {
		// Measured time is dominated by communication; keep compute as-is.
		return m, nil
	}
	scale := target / compute
	out := m
	out.GammaVertex *= scale
	out.GammaEdge *= scale
	return out, nil
}
