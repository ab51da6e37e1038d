package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func loadManifest(t *testing.T) (string, *manifest) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, man
}

// TestManifest holds BENCHMARK.json to the limits its readers enforce.
func TestManifest(t *testing.T) {
	_, man := loadManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", man.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range man.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, man.EndToEnd...), man.PerLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestSelfTime pins the self-time rule: a span's duration minus the part of
// it that its children cover, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "run", Start: 10, End: 70},
		{ID: 3, Parent: 2, Name: "rank", Start: 10, End: 50},
		{ID: 4, Parent: 2, Name: "rank", Start: 20, End: 60}, // overlaps span 3
		{ID: 5, Parent: 1, Name: "gather", Start: 70, End: 90},
	}
	want := []int64{20, 10, 40, 40, 20}
	for i, got := range selfNanos(spans) {
		if got != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", spans[i].ID, spans[i].Name, got, want[i])
		}
	}
}

// TestWindowKeepsQuietIntervals pins which intervals a window is computed
// over: the quietest adding up to the time asked for, and in a window that
// could not get that much quiet time, the quiet ones only, down to half.
func TestWindowKeepsQuietIntervals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		steals []float64 // one interval of 1 s each
		want   time.Duration
		kept   int
		worst  float64
	}{
		{"all quiet", []float64{0, 0.005, 0, 0.01}, 4 * time.Second, 4, 0.01},
		{"quietest first", []float64{0.2, 0, 0.3, 0, 0, 0}, 4 * time.Second, 4, 0},
		{"rough: quiet ones only", []float64{0.2, 0, 0.3, 0, 0.1, 0}, 4 * time.Second, 3, 0},
		{"rougher: half at least", []float64{0.2, 0, 0.3, 0.4, 0.1, 0.5}, 4 * time.Second, 2, 0.1},
	} {
		start := time.Unix(0, 0)
		m := &meter{want: tc.want, quit: make(chan struct{}), exited: make(chan struct{})}
		close(m.exited)
		var jobs []jobRec
		for i, s := range tc.steals {
			end := start.Add(time.Duration(i+1) * time.Second)
			m.intervals = append(m.intervals, interval{end: end, wall: time.Second, steal: s, canary: canaryNominalMs})
			jobs = append(jobs, jobRec{end: end.Add(-time.Millisecond), ok: true, lat: time.Millisecond})
		}
		w := m.window(jobs, true)
		if len(w.jobs) != tc.kept || w.steal != tc.worst || w.busy != time.Duration(tc.kept)*time.Second {
			t.Errorf("%s: kept %d jobs over %v, worst steal %v; want %d, %v", tc.name, len(w.jobs), w.busy, w.steal, tc.kept, tc.worst)
		}
	}
}

// TestQuickSuite runs the whole command at -quick size and checks its output
// against BENCHMARK.json: every workload, every metric, all finite, and every
// per-layer metric documented in the README.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and starts daemons")
	}
	root, man := loadManifest(t)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "dmgm-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	file := filepath.Join(tmp, "BENCH.json")
	if out, err := exec.Command(bin, "-root", root, "-quick", "-out", file).CombinedOutput(); err != nil {
		t.Fatalf("bench -quick: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var sf suiteFile
	if err := json.Unmarshal(raw, &sf); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(filepath.Join(root, "bench", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	finite := func(where string, v float64, ok bool) {
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: missing or not finite (%v)", where, v)
		}
	}
	for _, wl := range man.Workloads {
		sw := sf.Workloads[wl.Name]
		if sw == nil {
			t.Errorf("workload %s missing from the output", wl.Name)
			continue
		}
		for _, run := range append(sw.Runs, sw.Traced) {
			if !run.Correct || run.Failed != 0 || run.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", wl.Name, run.Correct, run.Attempted, run.Failed)
			}
		}
		for _, d := range man.EndToEnd {
			s := sw.EndToEnd[d.Name]
			finite(wl.Name+"/"+d.Name, s.Median, s != nil)
			if s != nil && s.Median == 0 {
				t.Errorf("%s/%s is 0; end-to-end metrics must never be", wl.Name, d.Name)
			}
		}
		for _, d := range man.PerLayer {
			v, ok := sw.PerLayer[d.Name]
			finite(wl.Name+"/"+d.Name, v, ok)
		}
	}
	for _, d := range append(append([]metricDef{}, man.EndToEnd...), man.PerLayer...) {
		if !strings.Contains(string(readme), "`"+d.Name+"`") {
			t.Errorf("metric %s is not documented in bench/README.md", d.Name)
		}
	}
}
