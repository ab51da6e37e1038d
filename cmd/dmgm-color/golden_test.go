package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what the binary prints now")

// masks blank out the elapsed times — all that differs from run to run: for
// a superstep no smaller than the graph the speculative coloring is
// deterministic down to its message counts.
var masks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`(time|host wall): \S+`), `$1: <elapsed>`},
	{regexp.MustCompile(`"elapsed_seconds":[-+.e0-9]+`), `"elapsed_seconds":<elapsed>`},
}

// TestGolden pins everything dmgm-color prints and writes — text and -json,
// sequential and distributed, with the -o file — over one fixed graph. The
// goldens were recorded from the binary of the commit before the mains moved
// onto launch.CLI and dmgm.RunJob (DMGM_GOLDEN_BIN=<that binary> go test
// -update runs the same cases through a binary instead of run()).
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	g, err := gen.ErdosRenyi(300, 900, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "er.g")
	if err := graph.WriteFile(in, g); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"seq":             {},
		"seq_order":       {"-order", "smallest-last"},
		"seq_distance2":   {"-distance2"},
		"seq_json":        {"-json"},
		"p4":              {"-p", "4", "-seed", "5"},
		"p4_json":         {"-p", "4", "-seed", "5", "-json"},
		"p4_distance2":    {"-p", "4", "-seed", "5", "-distance2"},
		"p4_broadcast":    {"-p", "4", "-seed", "5", "-comm", "broadcast", "-partition", "bfs"},
		"p4_norefine":     {"-p", "4", "-seed", "5", "-norefine", "-superstep", "500"},
		"p4_jp":           {"-p", "4", "-seed", "5", "-algo", "jp"},
		"p4_jp_json":      {"-p", "4", "-seed", "5", "-algo", "jp", "-json"},
		"usage_badcomm":   {"-p", "4", "-comm", "bogus"},
		"usage_jp_remote": {"-p", "4", "-algo", "jp", "-transport", "tcp"},
	} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(dir, name+".out")
			args = append([]string{"-in", in}, args...)
			if !strings.Contains(name, "jp") {
				// The binary these goldens come from ignored -o under -algo jp;
				// TestJPHonoursOut covers what it does now.
				args = append(args, "-o", out)
			}
			var stdout, stderr bytes.Buffer
			var code int
			if bin := os.Getenv("DMGM_GOLDEN_BIN"); bin != "" {
				cmd := exec.Command(bin, args...)
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					code = cmd.ProcessState.ExitCode()
				}
			} else {
				code = run(args, &stdout, &stderr)
			}
			written, _ := os.ReadFile(out) // absent after a usage error
			got := fmt.Sprintf("exit %d\n## stdout\n%s## stderr\n%s## -o\n%s", code, &stdout, &stderr, written)
			for _, m := range masks {
				got = m.re.ReplaceAllString(got, m.with)
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("output differs from %s:\n--- got\n%s\n--- want\n%s", golden, got, want)
			}
		})
	}
}

// TestJPHonoursOut: since the Jones–Plassmann baseline runs through the same
// driver as everything else, -o writes its coloring too.
func TestJPHonoursOut(t *testing.T) {
	dir := t.TempDir()
	g, err := gen.ErdosRenyi(300, 900, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	in, out := filepath.Join(dir, "er.g"), filepath.Join(dir, "jp.out")
	if err := graph.WriteFile(in, g); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", in, "-p", "4", "-algo", "jp", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	col, err := coloring.ReadColorsFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Verify(g); err != nil {
		t.Fatal(err)
	}
}
