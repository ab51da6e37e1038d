package matching

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
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
	} {
		if _, err := ReadMates(bytes.NewBufferString(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Comments and empty matching are fine.
	m, err := ReadMates(bytes.NewBufferString("# c\nmatching 4\n"))
	if err != nil || len(m) != 4 || m.Cardinality() != 0 {
		t.Fatalf("empty matching parse: %v %v", m, err)
	}
}
