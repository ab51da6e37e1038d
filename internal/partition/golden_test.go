package partition

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

var update = flag.Bool("update", false, "rewrite testdata/multilevel.golden from what Multilevel returns now")

type goldenGraph struct {
	name string
	g    *graph.Graph
}

// goldenGraphs are the weighted inputs of the multilevel golden table: the
// serving benchmark's circuit graph, a skewed one, the model problem and a
// structureless one. Their edge weights are distinct reals, so no two moves
// of the refinement ever tie and Part is a function of (graph, P, options).
func goldenGraphs(t *testing.T) []goldenGraph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return []goldenGraph{
		{"circuit128", must(gen.Circuit(128, 128, 0.45, true, 3))},
		{"rmat13", must(gen.RMAT(13, 8, true, 5))},
		{"grid100x90", must(gen.Grid2D(100, 90, true, 7))},
		{"er5000", must(gen.ErdosRenyi(5000, 20000, true, 11))},
	}
}

func partHash(part []int32) string {
	buf := make([]byte, 4*len(part))
	for i, p := range part {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}

// TestMultilevelGolden pins what Multilevel returns — the whole Part by its
// SHA-256, and the cut and imbalance it amounts to — on weighted inputs,
// refined and unrefined. The file was recorded before graph construction and
// the partitioner were made linear-time and map-free, and must not change
// when either is touched: every cut, traffic and color number downstream
// stands on these assignments.
func TestMultilevelGolden(t *testing.T) {
	var got bytes.Buffer
	for _, gg := range goldenGraphs(t) {
		for _, p := range []int{2, 3, 4, 7, 16} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, noRefine := range []bool{false, true} {
					part, err := Multilevel(gg.g, p, MultilevelOptions{Seed: seed, NoRefine: noRefine})
					if err != nil {
						t.Fatal(err)
					}
					if err := part.Validate(gg.g); err != nil {
						t.Fatal(err)
					}
					m := Measure(gg.g, part)
					mode := "refined"
					if noRefine {
						mode = "norefine"
					}
					fmt.Fprintf(&got, "%s P=%d seed=%d %s part=%s cut=%d imbalance=%.6f\n",
						gg.name, p, seed, mode, partHash(part.Part), m.EdgeCut, m.Imbalance)
				}
			}
		}
	}
	const path = "testdata/multilevel.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	shown := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] && shown < 20 {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gotLines[i], wantLines[i])
			shown++
		}
	}
}
