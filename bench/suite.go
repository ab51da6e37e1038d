package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// summary is one end-to-end metric of one workload over the suite's runs.
type summary struct {
	metricDef
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// spread is the distance between the quartiles as a share of the median, the
// run-to-run noise a difference has to exceed. Fewer than four runs have no
// quartiles to speak of.
func (s *summary) spread() (float64, bool) {
	if len(s.Values) < 4 || s.Median == 0 {
		return 0, false
	}
	return (s.Q3 - s.Q1) / s.Median, true
}

type suiteWorkload struct {
	Why      string              `json:"why"`
	Runs     []*runResult        `json:"runs"`   // untraced, one per seed
	Traced   *runResult          `json:"traced"` // per-layer metrics and the stage table
	EndToEnd map[string]*summary `json:"end_to_end"`
	PerLayer map[string]float64  `json:"per_layer"`
}

// suiteFile is what the suite writes and -compare reads.
type suiteFile struct {
	Env       map[string]string         `json:"env"`
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Reps      int                       `json:"reps"`
	Quick     bool                      `json:"quick"`
	WallS     float64                   `json:"wall_s"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

// runSuite runs every selected workload reps times untraced and once traced,
// each run in a fresh child process of this binary, so that GC state and peak
// memory do not leak from one workload into the next.
func runSuite(o *options, subset string, reps int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		out = o.outPath("BENCH.json")
	}
	start := time.Now()
	sf := &suiteFile{Env: environment(o.root), Seed: o.seed, Seconds: o.seconds, Reps: reps, Quick: o.quick,
		Workloads: map[string]*suiteWorkload{}}
	child := func(name string, seed uint64, trace int) (*runResult, error) {
		args := []string{"-root", o.root, "-serve-bin", o.serveBin, "-workload", name,
			"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace)}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.CommandContext(o.ctx, self, args...)
		cmd.Stderr = os.Stderr
		if _, err := cmd.Output(); err != nil {
			return nil, fmt.Errorf("%s (seed %d, trace %d): %w", name, seed, trace, err)
		}
		b, err := os.ReadFile(o.outPath(fmt.Sprintf("run_%s_t%d.json", name, trace)))
		if err != nil {
			return nil, err
		}
		res := &runResult{}
		return res, json.Unmarshal(b, res)
	}
	for _, wl := range o.man.Workloads {
		if subset != "" && !strings.Contains(","+subset+",", ","+wl.Name+",") {
			continue
		}
		sw := &suiteWorkload{Why: wl.Why, EndToEnd: map[string]*summary{}}
		for i := 0; i < reps; i++ {
			res, err := child(wl.Name, o.seed+uint64(i), 0)
			if err != nil {
				return err
			}
			sw.Runs = append(sw.Runs, res)
		}
		if sw.Traced, err = child(wl.Name, o.seed, 1); err != nil {
			return err
		}
		sw.PerLayer = sw.Traced.Metrics
		for _, d := range o.man.EndToEnd {
			s := &summary{metricDef: d}
			for _, r := range sw.Runs {
				s.Values = append(s.Values, r.Metrics[d.Name])
			}
			s.Median, s.Q1, s.Q3 = median(s.Values), quantile(s.Values, 0.25), quantile(s.Values, 0.75)
			sw.EndToEnd[d.Name] = s
		}
		sf.Workloads[wl.Name] = sw
	}
	if len(sf.Workloads) == 0 {
		return fmt.Errorf("no workload matches %q", subset)
	}
	sf.Env["loadavg_after"] = loadavg()
	sf.WallS = time.Since(start).Seconds()
	b, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	printSuite(o.man, sf)
	fmt.Printf("\nwrote %s (%.0f s)\n", out, sf.WallS)
	return nil
}

// printSuite prints every metric by name with its unit and direction.
func printSuite(man *manifest, sf *suiteFile) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, wl := range man.Workloads {
		sw := sf.Workloads[wl.Name]
		if sw == nil {
			continue
		}
		fmt.Fprintf(tw, "\n%s\t%d+%d jobs/run\t\t\t\n", wl.Name, sw.Runs[0].Samples["match"], sw.Runs[0].Samples["color"])
		for _, d := range man.EndToEnd {
			s := sw.EndToEnd[d.Name]
			fmt.Fprintf(tw, "  %s\t%.5g\t%s\t%s is better\tbound %.2f\n", d.Name, s.Median, d.Unit, d.Better, d.Bound)
		}
		for _, d := range man.PerLayer {
			fmt.Fprintf(tw, "  %s\t%.5g\t%s\t%s is better\t\n", d.Name, sw.PerLayer[d.Name], d.Unit, d.Better)
		}
		// Where the traced jobs' time went: the stages by total self time.
		type row struct {
			name string
			stageRow
		}
		var rows []row
		for name, st := range sw.Traced.Stages {
			rows = append(rows, row{name, st})
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].SelfTotalMs > rows[b].SelfTotalMs })
		for _, r := range rows[:min(len(rows), 8)] {
			fmt.Fprintf(tw, "  stage %s\t%.5g\tms self p50\tx%d\t\n", r.name, r.SelfP50Ms, r.Count)
		}
	}
	tw.Flush()
}

// environment records what a number depends on besides the code.
func environment(root string) map[string]string {
	env := map[string]string{
		"go_version":     runtime.Version(),
		"nproc":          fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":     fmt.Sprint(runtime.GOMAXPROCS(0)),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":      "unknown",
		"commit":         "unknown",
		"loadavg_before": loadavg(),
		"time":           time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu_model"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}

// loadavg is the 1-minute load average, or "unknown".
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Fields(string(b))[0]
}

// compareFiles judges suite file b against a: per workload and end-to-end
// metric, both medians, how much worse b is as a share of a, and the bound.
// A pair whose run-to-run spread exceeds the bound is unresolved, not ok.
func compareFiles(pathA, pathB string) error {
	var a, b suiteFile
	for path, sf := range map[string]*suiteFile{pathA: &a, pathB: &b} {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, sf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta\tb\tunit\tworse by\tspread\tbound\tverdict\n")
	worse := 0
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			return fmt.Errorf("%s has no workload %s", pathB, name)
		}
		metrics := make([]string, 0, len(wa.EndToEnd))
		for m := range wa.EndToEnd {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			sa, sb := wa.EndToEnd[m], wb.EndToEnd[m]
			if sb == nil {
				return fmt.Errorf("%s: %s has no metric %s", pathB, name, m)
			}
			by := (sb.Median - sa.Median) / sa.Median
			if sa.Better == "higher" {
				by = -by
			}
			spreadA, okA := sa.spread()
			spreadB, okB := sb.spread()
			spread := max(spreadA, spreadB)
			verdict, shown := "ok", "n/a"
			if okA || okB {
				shown = fmt.Sprintf("%.1f%%", 100*spread)
			}
			switch {
			case spread > sa.Bound:
				verdict = "unresolved"
			case by > sa.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%s\t%+.1f%%\t%s\t%.0f%%\t%s\n",
				name, m, sa.Median, sb.Median, sa.Unit, 100*by, shown, 100*sa.Bound, verdict)
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d metrics are worse than their bound allows", worse)
	}
	return nil
}
