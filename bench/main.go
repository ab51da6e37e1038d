// Command bench is the repository's benchmark: six workloads, the
// end-to-end metrics a caller sees, and a per-layer table measured from
// outside the program. BENCHMARK.json at the repository root lists the
// workloads and metrics; README.md in this directory explains them.
//
// One run of one workload (what bench/run.sh is called with):
//
//	bench -workload solve_rmat -seed 1 -seconds 10 -trace 0
//
// prints the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1) as one JSON object on the last line of standard output. Without
// -trace the command runs the whole suite, each run in a fresh child process,
// and writes one file; -compare judges two such files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json: the single list of workloads and metrics that
// this command emits and that -compare judges by.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type options struct {
	ctx      context.Context
	root     string // repository root (holds BENCHMARK.json)
	serveBin string
	man      *manifest
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
}

func (o *options) outPath(name string) string { return filepath.Join(o.root, "bench", "out", name) }

func (o *options) sizes() sizes {
	if o.quick {
		return quickSizes
	}
	return fullSizes
}

func newRunner(o *options) (runner, error) {
	if spec, ok := solveSpecs[o.workload]; ok {
		return &solveRun{spec: spec, sz: o.sizes(), seed: o.seed}, nil
	}
	switch o.workload {
	case "serve_cold_inline", "serve_warm_ref", "serve_hit_small":
		r := &serveRun{name: o.workload, ctx: o.ctx, bin: o.serveBin, sz: o.sizes(), seed: o.seed}
		if o.trace {
			// Retain every job's span tree, so that the traced run can fetch it.
			r.extraArgs = []string{"-trace-slow-ms", "0"}
		}
		return r, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		root     = flag.String("root", "", "repository root (default: the nearest parent directory holding BENCHMARK.json)")
		serveBin = flag.String("serve-bin", "", "dmgm-serve binary (default: built from ./cmd/dmgm-serve into .bench_build)")
		workload = flag.String("workload", "", "workload name, or a comma-separated subset for the suite (default: all)")
		seed     = flag.Uint64("seed", 1, "seed of every generator and job seed")
		seconds  = flag.Float64("seconds", 0, "measured time per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0: one untraced run, end-to-end metrics; 1: one traced run, per-layer metrics; unset: the suite")
		quick    = flag.Bool("quick", false, "small graphs and short windows: checks the harness, measures nothing")
		reps     = flag.Int("reps", 1, "suite: untraced runs per workload, on seeds seed, seed+1, ...")
		out      = flag.String("out", "", "suite: output file (default bench/out/BENCH.json)")
		compare  = flag.Bool("compare", false, "compare two suite files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two suite files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	o := &options{ctx: ctx, root: *root, serveBin: *serveBin, seed: *seed, seconds: *seconds, quick: *quick}
	var err error
	if o.root == "" {
		if o.root, err = findRoot(); err != nil {
			return err
		}
	}
	if o.man, err = readManifest(o.root); err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(o.man.RunSeconds)
		if o.quick {
			o.seconds = 0.6
		}
	}
	if err := os.MkdirAll(o.outPath(""), 0o755); err != nil {
		return err
	}
	if o.serveBin == "" {
		if o.serveBin, err = buildServer(o.root); err != nil {
			return err
		}
	}
	if *trace < 0 {
		return runSuite(o, *workload, *reps, *out)
	}
	o.workload, o.trace = *workload, *trace == 1
	res, err := runOne(o)
	if err != nil {
		return err
	}
	return emit(o, res)
}

func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in any parent directory; pass -root")
		}
		dir = parent
	}
}

func readManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// buildServer builds the daemon from source, for runs started without
// bench/run.sh (go run, go test).
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "dmgm-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dmgm-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building dmgm-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// emit writes the run's full record to bench/out and prints the result line:
// the metrics BENCHMARK.json lists for this kind of run, each with its unit.
// A per-layer row the workload does not exercise reads 0.
func emit(o *options, res *runResult) error {
	defs := o.man.EndToEnd
	if o.trace {
		defs = o.man.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	known := map[string]bool{}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok && !o.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = v
		line.Metrics[d.Name] = value{v, d.Unit}
		known[d.Name] = true
	}
	for name := range res.Metrics {
		if !known[name] {
			return fmt.Errorf("metric %s is measured but not listed in BENCHMARK.json", name)
		}
	}
	full, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.outPath(fmt.Sprintf("run_%s_t%d.json", o.workload, b2i(o.trace))), full, 0o644); err != nil {
		return err
	}
	var shown []string
	for _, d := range o.man.EndToEnd {
		if v, ok := res.Metrics[d.Name]; ok {
			shown = append(shown, fmt.Sprintf("%s=%.4g%s", d.Name, v, d.Unit))
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %d jobs (%d match, %d color), %d failed %s\n", o.workload, o.seed,
		b2i(o.trace), res.Attempted, res.Samples["match"], res.Samples["color"], res.Failed, strings.Join(shown, " "))
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d jobs failed their checks", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
