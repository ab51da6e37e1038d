package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what the binary prints now")

// masks blank out what legitimately differs from run to run: elapsed times,
// and the distributed matching's traffic and outer-iteration counts, which
// depend on message arrival order (a rank that hears SUCCEEDED early sends
// fewer REQUESTs) — the matching itself does not.
var masks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`(time|host wall): \S+`), `$1: <elapsed>`},
	{regexp.MustCompile(`"elapsed_seconds":[-+.e0-9]+`), `"elapsed_seconds":<elapsed>`},
	{regexp.MustCompile(`outer iterations: \d+\nmessages: \d+ \(\d+ bytes\)`), `outer iterations: <n>` + "\n" + `messages: <n> (<n> bytes)`},
	{regexp.MustCompile(`"outer_iterations":\d+,"messages":[1-9]\d*,"bytes":\d+`), `"outer_iterations":<n>,"messages":<n>,"bytes":<n>`},
}

// TestGolden pins everything dmgm-match prints and writes — text and -json,
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
	part, err := partition.Block1D(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	partFile := filepath.Join(dir, "er.part")
	if err := partition.WriteFile(partFile, part); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"seq":         {},
		"seq_json":    {"-json"},
		"p4":          {"-p", "4", "-seed", "5"},
		"p4_json":     {"-p", "4", "-seed", "5", "-json"},
		"p4_nobundle": {"-p", "4", "-seed", "5", "-nobundle"},
		"p4_bfs":      {"-p", "4", "-seed", "5", "-partition", "bfs"},
		"partfile":    {"-partfile", partFile},
	} {
		t.Run(name, func(t *testing.T) {
			out := filepath.Join(dir, name+".out")
			args = append([]string{"-in", in, "-o", out}, args...)
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
