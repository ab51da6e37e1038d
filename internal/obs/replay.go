package obs

import (
	"fmt"
	"sort"

	"repro/internal/perfmodel"
)

// ReplayFromTrace converts a recorded trace into the per-rank replay input
// of perfmodel.Replay: top-level (non-detail) "X" spans become per-phase
// observations, and the metrics sidecar's per-rank vectors become each
// rank's whole-run profile (vertex/edge operations for calibration, traffic
// aggregates and barrier epochs for the communication terms). Driver spans
// are excluded — the model prices the bulk-synchronous rank schedule, not
// the sequential driver work around it.
func ReplayFromTrace(tf *TraceFile) ([]perfmodel.RankReplay, error) {
	type phaseAgg struct {
		seconds     float64
		msgs, bytes int64
	}
	perRank := map[int]map[string]*phaseAgg{}
	for _, e := range tf.Events {
		if e.Ph != "X" || e.Cat == "detail" || e.PID == DriverPID {
			continue
		}
		m := perRank[e.PID]
		if m == nil {
			m = map[string]*phaseAgg{}
			perRank[e.PID] = m
		}
		a := m[e.Name]
		if a == nil {
			a = &phaseAgg{}
			m[e.Name] = a
		}
		a.seconds += e.Dur / 1e6 // trace durations are microseconds
		a.msgs += e.ArgInt("msgs")
		a.bytes += e.ArgInt("bytes")
	}
	if len(perRank) == 0 {
		return nil, fmt.Errorf("obs: trace has no rank phase spans to replay")
	}

	cell := func(name string, r int) int64 {
		if tf.Metrics == nil || r < 0 || r >= len(tf.Metrics.PerRank[name]) {
			return 0
		}
		return tf.Metrics.PerRank[name][r]
	}

	var ranks []int
	for r := range perRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	out := make([]perfmodel.RankReplay, 0, len(ranks))
	for _, r := range ranks {
		rr := perfmodel.RankReplay{
			Rank: r,
			Total: perfmodel.Profile{
				VertexOps: cell("mpi.vertex_ops", r),
				EdgeOps:   cell("mpi.edge_ops", r),
				Msgs:      cell("mpi.sent_msgs", r),
				Bytes:     cell("mpi.sent_bytes", r),
				Epochs:    cell("mpi.barrier_epochs", r),
			},
		}
		m := perRank[r]
		for _, name := range SortedKeys(m) {
			a := m[name]
			rr.Phases = append(rr.Phases, perfmodel.PhaseObs{
				Name: name, Seconds: a.seconds, Msgs: a.msgs, Bytes: a.bytes,
			})
		}
		out = append(out, rr)
	}
	return out, nil
}
