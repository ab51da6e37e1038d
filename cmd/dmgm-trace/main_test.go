package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
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

// TestGolden pins the four rendered views of a trace file — the report every
// perf investigation reads — so the code under them can be rearranged without
// a character of output moving.
func TestGolden(t *testing.T) {
	for name, args := range map[string][]string{
		"report":       {},
		"details":      {"-details"},
		"metrics_only": {"-metrics-only"},
		"replay":       {"-replay"},
	} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append(args, surfaceTrace)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("dmgm-trace %v: %v\n%s", args, err, &stderr)
			}
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
		})
	}
}
