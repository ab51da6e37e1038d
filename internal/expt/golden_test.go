package expt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/quick.golden")

// scheduleDependent names the columns whose cells depend on message arrival
// order (the asynchronous matching's iteration and traffic counts, coloring
// with a superstep below n, anything timed) and so differ between two runs of
// one commit. Every other cell — and every title, header and comment line —
// is compared byte for byte. Two comment lines under the traffic tables spell
// out the record layouts; they are the encoding's, and a change of encoding
// re-records those two lines and nothing else.
var scheduleDependent = map[string]bool{
	"Host wall": true, "Sim async": true, "Model (BG/P)": true, "Ideal": true, "Epochs": true,
	"Runtime msgs": true, "Bytes": true, "Records": true,
	"Rounds": true, "Colors": true, "Conflicts": true, "Max per-rank re-colors": true,
	"Sent msgs": true, "Sent bytes": true, "Recv msgs": true, "Recv bytes": true,
}

var digits = regexp.MustCompile(`[0-9]+`)

// maskTables rewrites rendered harness output with every schedule-dependent
// cell replaced by "*". A table with no such column passes through verbatim,
// alignment included; one with such a column loses its separator line and is
// re-joined with " | ", because its column widths depend on the masked values.
func maskTables(t *testing.T, out string) string {
	t.Helper()
	var b strings.Builder
	for _, block := range strings.Split(strings.TrimRight(out, "\n"), "\n\n") {
		lines := strings.Split(block, "\n")
		if len(lines) < 3 || !strings.HasPrefix(lines[0], "== ") || !strings.HasPrefix(lines[2], "-") {
			t.Fatalf("not a rendered table:\n%s", block)
		}
		// The separator's dash runs give each column's offset and width.
		var starts, ends []int
		for i, sep := 0, lines[2]; i < len(sep); {
			j := i
			for j < len(sep) && sep[j] == '-' {
				j++
			}
			starts, ends = append(starts, i), append(ends, j)
			i = j + 2
		}
		cells := func(line string) []string {
			row := make([]string, len(starts))
			for c := range starts {
				lo, hi := starts[c], ends[c]
				if c == len(starts)-1 || hi > len(line) {
					hi = len(line)
				}
				if lo < len(line) {
					row[c] = strings.TrimRight(line[lo:hi], " ")
				}
			}
			return row
		}
		header := cells(lines[1])
		masked := false
		for _, h := range header {
			masked = masked || scheduleDependent[h]
		}
		for i, line := range lines {
			switch {
			case strings.HasPrefix(line, "# user families sum to the aggregate exactly:"):
				line = digits.ReplaceAllString(line, "*")
			case strings.HasPrefix(line, "#") || i == 0 || !masked:
			case i == 2:
				continue // its dash runs are as wide as the masked values
			default:
				row := cells(line)
				for c := range row {
					if i > 2 && (scheduleDependent[header[c]] || strings.HasPrefix(row[c], "colors=")) {
						row[c] = "*"
					}
				}
				line = strings.Join(row, " | ")
			}
			b.WriteString(line + "\n")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestQuickGolden pins what dmgm-experiments -quick prints: Tables 1.1, the
// weight sweep and 5.1 whole, and of every scaling, ablation and traffic table
// the title, header, comments, row set and the Procs / Input / Source / W=
// cells. Recorded before the harness refactor; a diff is a change to the
// regenerated evaluation, never noise.
func TestQuickGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(Options{Out: &buf, Quick: true, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	got := maskTables(t, buf.String())
	path := filepath.Join("testdata", "quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
