package partition

import (
	"bytes"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
)

func TestPartsRoundTrip(t *testing.T) {
	g, err := gen.Grid2D(10, 10, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BFS(g, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteParts(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadParts(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.P != p.P || !reflect.DeepEqual(got.Part, p.Part) {
		t.Fatal("round trip changed partition")
	}
}

func TestReadPartsWithoutHeader(t *testing.T) {
	in := "0\n2\n1\n2\n"
	p, err := ReadParts(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 3 || len(p.Part) != 4 {
		t.Fatalf("P=%d len=%d", p.P, len(p.Part))
	}
}

func TestReadPartsHeaderAllowsEmptyParts(t *testing.T) {
	// A declared P larger than max(id)+1 is valid (empty parts allowed).
	in := "p 8\n0\n1\n"
	p, err := ReadParts(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.P != 8 {
		t.Fatalf("P = %d, want 8", p.P)
	}
}

func TestReadPartsErrors(t *testing.T) {
	for name, in := range map[string]string{
		"negative id":       "-1\n",
		"garbage":           "zero\n",
		"bad header":        "p x\n",
		"id exceeds header": "p 2\n5\n",
		"zero header":       "p 0\n",
	} {
		if _, err := ReadParts(bytes.NewBufferString(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPartsFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "parts.txt")
	p := &Partition{P: 3, Part: []int32{0, 2, 1, 1}}
	if err := WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.P != 3 || !reflect.DeepEqual(got.Part, p.Part) {
		t.Fatal("file round trip changed partition")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("read of missing file succeeded")
	}
}

// TestReadPartsAllocatesForItsInput pins the scanner's buffer to the input:
// ten reads of a small partition allocate well under the 1 MiB line limit.
func TestReadPartsAllocatesForItsInput(t *testing.T) {
	const in = "p 2\n0\n1\n1\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		if _, err := ReadParts(strings.NewReader(in)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
		t.Errorf("ten reads of a %d-byte partition allocated %d bytes", len(in), alloc)
	}
}
