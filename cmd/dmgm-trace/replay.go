package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// replay feeds the recorded per-phase durations and traffic into the α–β–γ
// performance model and prints per-phase predicted-vs-observed error.
func replay(tf *obs.TraceFile) int {
	ranks, err := obs.ReplayFromTrace(tf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-trace: %v\n", err)
		return 1
	}
	rep, err := perfmodel.Replay(perfmodel.BlueGeneP(), ranks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmgm-trace: %v\n", err)
		return 1
	}
	m := rep.Machine
	fmt.Printf("== model replay (%d ranks, %s) ==\n", len(ranks), m.Name)
	fmt.Printf("calibrated: γv=%.3gs γe=%.3gs α=%.3gs β=%.3gs σ=%.3gs\n",
		m.GammaVertex, m.GammaEdge, m.Alpha, m.Beta, m.Sync)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\tobserved\tpredicted\terror")
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "%s\t%s\t%s\t%+.1f%%\n",
			p.Name, fmtUS(p.ObservedSeconds*1e6), fmtUS(p.PredictedSeconds*1e6), p.ErrorPct)
	}
	fmt.Fprintf(w, "makespan\t%s\t%s\t%+.1f%%\n",
		fmtUS(rep.ObservedMakespan*1e6), fmtUS(rep.PredictedMakespan*1e6), rep.MakespanErrorPct)
	w.Flush()
	return 0
}
