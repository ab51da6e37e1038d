package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	kindMatch = 0
	kindColor = 1
	ranks     = 4
)

var (
	kindNames = [2]string{"match", "color"}
	kindPkg   = [2]string{"matching", "coloring"} // the package whose kernel a job of the kind runs
)

// sizes fixes the inputs of every workload. Job counts are not fixed: a run
// measures for -seconds, whatever the machine's speed.
type sizes struct {
	grid      int   // side of the five-point grid
	rmatScale int   // RMAT scale, edge factor 8
	circuit   int   // side of each circuit graph
	erN       int   // ER vertices
	erM       int64 // ER edges
}

var (
	fullSizes  = sizes{grid: 512, rmatScale: 16, circuit: 128, erN: 2000, erM: 6000}
	quickSizes = sizes{grid: 128, rmatScale: 12, circuit: 32, erN: 500, erM: 1500}
)

// jobRec is one measured job as its caller saw it.
type jobRec struct {
	kind        int
	lat         time.Duration
	end         time.Time
	ok          bool
	wireBytes   int64 // user-family bytes sent by the run that produced the result
	msgs        int64
	colors      int
	weightRatio float64 // matching weight / sequential locally-dominant weight

	// Kernel counters (library workloads; the service reports rounds and
	// conflicts only).
	outer, records, bundles int64
	rounds                  int
	conflicts               int64
	respBytes               int // service: response body size
}

// window is one measured stretch of jobs.
type window struct {
	jobs []jobRec
	// busy is the denominator of jobs_per_s: wall time of the window, less
	// the time the single library driver spent checking results.
	busy        time.Duration
	extraFailed int     // failures found after the window (sampled verification, cache assertions)
	dropped     int     // jobs run but left out because the hypervisor was busy elsewhere
	steal       float64 // the largest share of stolen CPU time among the intervals kept
	memSpeed    float64 // the machine's memory speed over the intervals kept, 1 = reference (meter.go)
}

func (w *window) failed() int {
	n := w.extraFailed
	for _, j := range w.jobs {
		if !j.ok {
			n++
		}
	}
	return n
}

// jobsPerSec is the throughput at the reference memory speed.
func (w *window) jobsPerSec() float64 {
	ok := 0
	for _, j := range w.jobs {
		if j.ok {
			ok++
		}
	}
	return float64(ok) / w.busy.Seconds() / w.memSpeed
}

// lats lists the latencies, in ms, of the jobs of one kind (-1 = all).
func (w *window) lats(kind int) []float64 {
	var out []float64
	for _, j := range w.jobs {
		if kind < 0 || j.kind == kind {
			out = append(out, ms(j.lat))
		}
	}
	return out
}

// pick collects one number per job of the given kind.
func (w *window) pick(kind int, f func(*jobRec) float64) []float64 {
	var out []float64
	for i := range w.jobs {
		if kind < 0 || w.jobs[i].kind == kind {
			out = append(out, f(&w.jobs[i]))
		}
	}
	return out
}

// endToEnd computes the metrics a user of the system would see, the timed
// ones at the reference memory speed.
func endToEnd(w *window, rssMB, setupS float64) map[string]float64 {
	return map[string]float64{
		"jobs_per_s":          w.jobsPerSec(),
		"match_p50_ms":        median(w.lats(kindMatch)) * w.memSpeed,
		"color_p50_ms":        median(w.lats(kindColor)) * w.memSpeed,
		"wire_kb_per_job":     mean(w.pick(-1, func(j *jobRec) float64 { return float64(j.wireBytes) / 1024 })),
		"match_weight_vs_seq": mean(w.pick(kindMatch, func(j *jobRec) float64 { return j.weightRatio })),
		"colors_mean":         mean(w.pick(kindColor, func(j *jobRec) float64 { return float64(j.colors) })),
		"peak_rss_mb":         rssMB,
		"setup_s":             setupS * w.memSpeed,
	}
}

// loadLayers are the per-layer rows read off the measured jobs themselves.
func loadLayers(w *window) map[string]float64 {
	out := map[string]float64{
		"load.match_p90_ms": quantile(w.lats(kindMatch), 0.9),
		"load.color_p90_ms": quantile(w.lats(kindColor), 0.9),
		"load.p99_ms":       0,
		"load.failed_frac":  float64(w.failed()) / float64(max(len(w.jobs), 1)),
		"mpi.msgs_per_job":  median(w.pick(-1, func(j *jobRec) float64 { return float64(j.msgs) })),
		"mpi.bytes_per_msg": 0,
		"coloring.rounds_p50": median(w.pick(kindColor, func(j *jobRec) float64 {
			return float64(j.rounds)
		})),
		"coloring.conflicts_per_job": mean(w.pick(kindColor, func(j *jobRec) float64 {
			return float64(j.conflicts)
		})),
	}
	// p99 only where at least ten samples lie beyond it.
	if all := w.lats(-1); len(all) >= 1000 {
		out["load.p99_ms"] = quantile(all, 0.99)
	}
	var bytes, msgs int64
	for _, j := range w.jobs {
		bytes += j.wireBytes
		msgs += j.msgs
	}
	if msgs > 0 {
		out["mpi.bytes_per_msg"] = float64(bytes) / float64(msgs)
	}
	return out
}

// runner is one workload: its set-up, its measured loop and its layers.
type runner interface {
	// setup does everything a user waits for before the first measured job:
	// generate, partition, distribute, start the server, upload, warm up.
	setup() error
	// reference computes the sequential answers the checks compare against;
	// it is benchmark overhead and is not part of setup_s.
	reference() error
	// measure runs jobs until d of quiet time is measured (see meter.go) and
	// checks every result.
	measure(d time.Duration, tr *tracer) (*window, error)
	// layers fills the per-layer rows that need this workload's inputs.
	layers(plain, traced *window, tr *tracer, out map[string]float64) error
	// peakRSSMB reads VmHWM of the process doing the work.
	peakRSSMB() (float64, error)
	close()
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]float64  `json:"metrics"`
	Samples   map[string]int      `json:"samples"`
	Stages    map[string]stageRow `json:"stages,omitempty"`
	SetupRuns []float64           `json:"setup_runs_s,omitempty"`
	// Dropped counts jobs that ran but ended in an interval left out for the
	// CPU time the hypervisor stole in it; KeptSteal is the largest stolen
	// share among the intervals kept (see meter.go).
	Dropped   int     `json:"dropped"`
	KeptSteal float64 `json:"kept_steal"`
	// MemSpeed is the memory speed the timed end-to-end metrics were scaled
	// by; divide a time by it (multiply a rate) for the value as measured.
	MemSpeed float64 `json:"mem_speed"`
}

// An untraced run sets the workload up at least minSetups times and reports
// the median as setup_s, so that one slow process start does not decide it. A
// set-up of a fraction of a second is repeated further, until a second has
// gone into set-ups or maxSetups of them are done.
const (
	minSetups = 3
	maxSetups = 9
)

func runOne(o *options) (*runResult, error) {
	r, err := newRunner(o)
	if err != nil {
		return nil, err
	}
	defer r.close()
	var setups []float64
	for total := 0.0; ; {
		if len(setups) > 0 {
			r.close()
		}
		start := time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
		// Collect each set-up's garbage now, so that peak memory does not
		// depend on where the collector happened to be.
		runtime.GC()
		if n := len(setups); o.trace || o.quick || n >= maxSetups || n >= minSetups && total >= 1 {
			break
		}
	}
	if err := r.reference(); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", o.workload, err)
	}
	res := &runResult{Workload: o.workload, Seed: o.seed, Traced: o.trace, SetupRuns: setups}
	d := time.Duration(o.seconds * float64(time.Second))
	var w *window
	if !o.trace {
		if w, err = r.measure(d, nil); err != nil {
			return nil, err
		}
		rss, err := r.peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics = endToEnd(w, rss, median(setups))
	} else {
		// The traced run measures the same loop twice, spans off then on, a
		// third of the time each; the rest of the budget goes to the probes
		// and the stage-by-stage replay.
		plain, err := r.measure(d/3, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		if w, err = r.measure(d/3, tr); err != nil {
			return nil, err
		}
		res.Metrics = loadLayers(w)
		res.Metrics["bench.trace_overhead_frac"] = 1 - w.jobsPerSec()/plain.jobsPerSec()
		res.Metrics["bench.mem_speed"] = w.memSpeed
		if err := r.layers(plain, w, tr, res.Metrics); err != nil {
			return nil, err
		}
		probes(o.quick, res.Metrics)
		res.Stages = stageTable(tr.spans)
		if err := tr.write(o.outPath("trace_" + o.workload + ".json")); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Dropped, res.KeptSteal, res.MemSpeed = len(w.jobs), w.failed(), w.dropped, w.steal, w.memSpeed
	res.Correct = res.Failed == 0
	res.Samples = map[string]int{"match": len(w.lats(kindMatch)), "color": len(w.lats(kindColor))}
	return res, nil
}

// vmHWM reads a process's peak resident set, in MiB, from /proc.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
