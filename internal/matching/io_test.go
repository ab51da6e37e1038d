package matching

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestMatesRoundTrip(t *testing.T) {
	g, err := gen.ErdosRenyi(60, 200, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := LocallyDominant(g)
	var buf bytes.Buffer
	if err := WriteMates(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m) {
		t.Fatalf("length %d, want %d", len(got), len(m))
	}
	for v := range m {
		if got[v] != m[v] {
			t.Fatalf("vertex %d mate %d, want %d", v, got[v], m[v])
		}
	}
}

func TestMatesFileRoundTrip(t *testing.T) {
	g, _ := gen.Grid2D(6, 6, true, 1)
	m := LocallyDominant(g)
	path := filepath.Join(t.TempDir(), "m.txt")
	var buf bytes.Buffer
	if err := WriteMates(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMatesFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("read missing file")
	}
}

func TestReadMatesErrors(t *testing.T) {
	for name, in := range map[string]string{
		"pair before header": "0 1\n",
		"bad header":         "matching x\n",
		"odd pair":           "matching 3\n0\n",
		"self pair":          "matching 3\n1 1\n",
		"out of range":       "matching 2\n0 5\n",
		"double match":       "matching 3\n0 1\n1 2\n",
		"garbage":            "matching 2\na b\n",
		"no header":          "# only a comment\n",
		"second header":      "matching 4\n0 1\nmatching 4\n2 3\n", // two result files concatenated
	} {
		if _, err := ReadMates(bytes.NewBufferString(in)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name == "second header" && !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: %v, want the header's line named", name, err)
		}
	}
	// Comments and empty matching are fine.
	m, err := ReadMates(bytes.NewBufferString("# c\nmatching 4\n"))
	if err != nil || len(m) != 4 || m.Cardinality() != 0 {
		t.Fatalf("empty matching parse: %v %v", m, err)
	}
}

// fmtMates is the rendering WriteMates had before it stopped going through
// fmt, line for line; the format is pinned against it.
func fmtMates(m Mates) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "matching %d\n", len(m))
	for v, u := range m {
		if u != graph.None && graph.Vertex(v) < u {
			fmt.Fprintf(&sb, "%d %d\n", v, u)
		}
	}
	return sb.String()
}

func TestWriteMatesPinnedToFmtRendering(t *testing.T) {
	allNone := make(Mates, 1000)
	for v := range allNone {
		allNone[v] = graph.None
	}
	// A perfect matching {v, v+1} over enough vertices that ids reach the
	// full width of the header's count.
	wide := make(Mates, 100000)
	for v := 0; v < len(wide); v += 2 {
		wide[v], wide[v+1] = graph.Vertex(v+1), graph.Vertex(v)
	}
	g, err := gen.Grid2D(40, 40, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		m         Mates
		roundTrip bool
	}{
		"nil":      {nil, true},
		"empty":    {Mates{}, true},
		"all none": {allNone, true},
		"one edge": {Mates{1, 0}, true},
		"wide ids": {wide, true},
		"grid":     {LocallyDominant(g), true},
		// Not a matching ReadMates would accept (the mate is beyond len(m)),
		// but the widest id the writer can be handed.
		"max int32 mate": {Mates{math.MaxInt32, graph.None, 3, 2}, false},
	} {
		var buf bytes.Buffer
		if err := WriteMates(&buf, tc.m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := buf.String(), fmtMates(tc.m); got != want {
			t.Errorf("%s: WriteMates wrote %d bytes %.60q, fmt renders %d bytes %.60q", name, len(got), got, len(want), want)
		}
		if !tc.roundTrip {
			continue
		}
		back, err := ReadMates(&buf)
		if err != nil {
			t.Fatalf("%s: ReadMates: %v", name, err)
		}
		if len(back) != len(tc.m) {
			t.Fatalf("%s: read back %d vertices, wrote %d", name, len(back), len(tc.m))
		}
		for v := range tc.m {
			if back[v] != tc.m[v] {
				t.Fatalf("%s: vertex %d mate %d after round trip, want %d", name, v, back[v], tc.m[v])
			}
		}
	}
}

// failWriter refuses everything, as a closed connection would.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestWriteMatesReportsWriteError(t *testing.T) {
	if err := WriteMates(failWriter{}, Mates{1, 0}); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("WriteMates on a failing writer returned %v", err)
	}
}
