package mpi

import (
	"math"

	"repro/internal/perfmodel"
)

// Virtual time: a LogP-flavored simulation layer over the runtime. When a
// World is created WithVirtualTime, every rank carries a virtual clock:
//
//   - algorithms charge compute via ChargeOps (γv per vertex op, γe per edge
//     op),
//   - a message arrives at senderClock + α + β·bytes; processing it advances
//     the receiver's clock to at least the arrival time,
//   - barriers and the all-to-all collectives synchronize clocks to the
//     maximum, plus a σ synchronization cost; a Gather pulls rank 0's alone.
//
// The maximum clock at the end of a run is a makespan estimate for the
// modeled machine that — unlike the bulk-synchronous α–β–γ model of
// internal/perfmodel — honors the asynchronous overlap of the real
// execution: a rank that keeps computing while traffic is in flight pays no
// idle time, exactly as on the paper's Blue Gene/P. Virtual waiting costs
// nothing; only arrivals pull clocks forward. See EXPERIMENTS.md ("model
// methodology") for how the two estimators are used together.
//
// The coefficients (α per message, β per byte, γv / γe per vertex / edge
// operation, σ per barrier, all in seconds) are those of the analytic model:
// VirtualTime is perfmodel.Machine, declared once.
type VirtualTime = perfmodel.Machine

// WithVirtualTime enables virtual-time tracking with the given coefficients.
func WithVirtualTime(vt VirtualTime) Option {
	return func(w *World) {
		v := vt
		w.vt = &v
	}
}

// ChargeOps advances this rank's virtual clock by the modeled cost of the
// given operation counts, and feeds the same counts into the observability
// registry (mpi.vertex_ops / mpi.edge_ops) when an observer is attached —
// the per-rank compute profile that perfmodel consumes. A near-no-op when
// both are disabled, and a no-op on a nil Comm (a kernel run with no world),
// so algorithms may charge unconditionally.
func (c *Comm) ChargeOps(edgeOps, vertexOps int64) {
	if c == nil {
		return
	}
	if c.eops != nil {
		c.eops.Add(edgeOps)
		c.vops.Add(vertexOps)
	}
	vt := c.world.vt
	if vt == nil {
		return
	}
	c.vclock += float64(edgeOps)*vt.GammaEdge + float64(vertexOps)*vt.GammaVertex
}

// RankVirtualTime reports a rank's final virtual clock after Run.
func (w *World) RankVirtualTime(rank int) float64 {
	return math.Float64frombits(w.finalVTime[rank].Load())
}

// MaxVirtualTime reports the virtual makespan of the run.
func (w *World) MaxVirtualTime() float64 {
	var max float64
	for r := 0; r < w.size; r++ {
		if t := w.RankVirtualTime(r); t > max {
			max = t
		}
	}
	return max
}

// stampSend computes the virtual arrival time of a message being sent now.
func (c *Comm) stampSend(bytes int) float64 {
	vt := c.world.vt
	if vt == nil {
		return 0
	}
	return c.vclock + vt.Alpha + vt.Beta*float64(bytes)
}

// observeArrival pulls this rank's clock forward to the arrival time of a
// message handed to it — for a collective's message, the sender's entry
// clock.
func (c *Comm) observeArrival(t float64) {
	if c.world.vt != nil && t > c.vclock {
		c.vclock = t
	}
}

// synced charges n barrier synchronizations: n epochs for the replay model,
// and σ onto the clock n times over (one addition per epoch, so a collective
// lands on the same bits as the two barriers it replaces).
func (c *Comm) synced(n int64) {
	c.epochs.Add(n)
	if vt := c.world.vt; vt != nil {
		for ; n > 0; n-- {
			c.vclock += vt.Sync
		}
	}
}
