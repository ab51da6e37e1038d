package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what dmgm-trace prints now")

// runMainEnv makes the test binary behave as dmgm-trace itself: TestGolden
// re-executes it with this set, so the views are pinned through main() —
// flag parsing, file read and every printer — not through its helpers.
const runMainEnv = "DMGM_TRACE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// surfaceTrace is the one fixed input: the trace file internal/obs's
// TestSurfaceGolden records from an observer under a fake clock (two ranks
// and the driver, a detail span, dropped-span counters, per-family traffic
// vecs, the compute vecs -replay calibrates on) and pins byte for byte.
var surfaceTrace = filepath.Join("..", "..", "internal", "obs", "testdata", "surface_trace.json")

// peakTrace is a trace file holding only a registry: a high-water-mark vec
// (mpi.mailbox_peak_bytes, which the surface observer does not emit) beside
// a count vec. emptyPeakTrace holds the same vec with no cells.
var (
	peakTrace      = filepath.Join("testdata", "peak_trace.json")
	emptyPeakTrace = filepath.Join("testdata", "empty_peak_trace.json")
)

// TestGolden pins the four rendered views of a trace file — the report every
// perf investigation reads — so the code under them can be rearranged without
// a character of output moving, and the per-rank counters row of a peak,
// an empty one included.
func TestGolden(t *testing.T) {
	for name, args := range map[string][]string{
		"report":             {surfaceTrace},
		"details":            {"-details", surfaceTrace},
		"metrics_only":       {"-metrics-only", surfaceTrace},
		"replay":             {"-replay", surfaceTrace},
		"mailbox_peak":       {"-metrics-only", peakTrace},
		"mailbox_peak_empty": {"-metrics-only", emptyPeakTrace},
	} {
		t.Run(name, func(t *testing.T) { checkGolden(t, name, runTrace(t, args)) })
	}
}

// TestWatchGolden records one -watch frame polled from two live endpoints,
// each serving one rank of the surface registry as a -launch worker does:
// it covers the merge, the per-rank rows, the imbalance line and the family
// table. The frame's wall-clock time is masked.
func TestWatchGolden(t *testing.T) {
	tf, err := obs.ReadTraceFile(surfaceTrace)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-watch", "-watch-iters", "1", "-no-clear"}
	for r := 0; r < 2; r++ {
		shard := rankShard(tf.Metrics, r)
		addr, err := obs.ServeLive("127.0.0.1:0", func() *obs.MetricsSnapshot { return shard })
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, addr)
	}
	clock := regexp.MustCompile(`\d\d:\d\d:\d\d\n`)
	checkGolden(t, "watch", clock.ReplaceAll(runTrace(t, args), []byte("hh:mm:ss\n")))
}

// rankShard is rank r's part of the registry m: every per-rank vec keeps
// only r's cell, and the process-wide counters and histograms ride on rank
// 0's shard, so the shards merge back into m.
func rankShard(m *obs.MetricsSnapshot, r int) *obs.MetricsSnapshot {
	s := &obs.MetricsSnapshot{Gauges: m.Gauges, PerRank: map[string][]int64{}}
	if r == 0 {
		s.Counters, s.Histograms = m.Counters, m.Histograms
	}
	for k, v := range m.PerRank {
		s.PerRank[k] = make([]int64, len(v))
		s.PerRank[k][r] = v[r]
	}
	return s
}

// runTrace runs dmgm-trace with args through main() and returns its stdout.
func runTrace(t *testing.T, args []string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("dmgm-trace %v: %v\n%s", args, err, &stderr)
	}
	return got
}

// checkGolden compares got with testdata/<name>.golden, or rewrites the
// golden under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got\n%s\n--- want\n%s", golden, got, want)
	}
}
