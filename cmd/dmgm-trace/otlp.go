package main

import (
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/perfmodel"
)

// otlpPush converts a recorded trace file to OTLP and posts it to the
// collector at endpoint — the post-mortem counterpart of the runtimes'
// -otlp flag. The run id defaults to the trace's file name so re-pushing
// the same file lands on the same trace id.
func otlpPush(tf *obs.TraceFile, path, endpoint, runID string) int {
	if runID == "" {
		runID = "dmgm-file-" + filepath.Base(path)
	}
	spans := obs.SpansOfEvents(tf.Events)
	if len(spans) == 0 && tf.Metrics == nil {
		fmt.Fprintln(os.Stderr, "dmgm-trace: trace has no spans or metrics to convert")
		return 1
	}
	worldSize := 0
	for _, s := range spans {
		if s.Rank >= worldSize {
			worldSize = s.Rank + 1
		}
	}
	exp := obs.NewOTLPExporter(endpoint, obs.OTLPOptions{
		Identity: obs.OTLPIdentity{RunID: runID, WorldSize: worldSize},
	})
	exp.ExportSpans(spans)
	if tf.Metrics != nil {
		var startNanos int64
		for _, s := range spans {
			if startNanos == 0 || s.Start < startNanos {
				startNanos = s.Start
			}
		}
		exp.ExportMetrics(tf.Metrics, startNanos)
	}
	err := exp.Close(30 * time.Second)
	if err != nil || exp.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "dmgm-trace: otlp push to %s: exported %d items, dropped %d (%v)\n",
			endpoint, exp.Exported(), exp.Dropped(), err)
		return 1
	}
	fmt.Printf("pushed %d spans and %d metric points to %s as run %q\n",
		len(spans), exp.Exported()-int64(len(spans)), endpoint, runID)
	return 0
}

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
