package partition

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from what Multilevel returns now")

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
	must := mustGraph(t)
	return []goldenGraph{
		{"circuit128", must(gen.Circuit(128, 128, 0.45, true, 3))},
		{"rmat13", must(gen.RMAT(13, 8, true, 5))},
		{"grid100x90", must(gen.Grid2D(100, 90, true, 7))},
		{"er5000", must(gen.ErdosRenyi(5000, 20000, true, 11))},
	}
}

// mustGraph returns the function that unwraps a generator's (graph, error).
func mustGraph(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func partHash(part []int32) string {
	buf := make([]byte, 4*len(part))
	for i, p := range part {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(p))
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))
}

// goldenLine runs Multilevel on one cell of a golden table and renders what
// the table pins: the whole Part by its SHA-256, and the cut and imbalance it
// amounts to.
func goldenLine(t *testing.T, gg goldenGraph, p int, seed uint64, noRefine bool) string {
	t.Helper()
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
	return fmt.Sprintf("%s P=%d seed=%d %s part=%s cut=%d imbalance=%.6f\n",
		gg.name, p, seed, mode, partHash(part.Part), m.EdgeCut, m.Imbalance)
}

// checkGolden compares got with the file at path, or rewrites the file under
// -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	shown := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] && shown < 20 {
			t.Errorf("%s line %d:\n  got  %s\n  want %s", path, i+1, gotLines[i], wantLines[i])
			shown++
		}
	}
}

// TestMultilevelGolden pins what Multilevel returns on weighted inputs,
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
					got.WriteString(goldenLine(t, gg, p, seed, noRefine))
				}
			}
		}
	}
	checkGolden(t, "testdata/multilevel.golden", got.Bytes())
}

// TestMultilevelReproducible: on unit weights many moves of the refinement
// gain exactly the same, and which of them is made is the tie rule's — lowest
// part id — not an accident of the run. Every cell is computed three times
// here and must come out the same each time, and the same as the file, which
// holds across processes and GOMAXPROCS (CI runs this under -count=20 and
// -cpu 1,4). When ties went by map iteration order, no two runs agreed.
func TestMultilevelReproducible(t *testing.T) {
	must := mustGraph(t)
	var got bytes.Buffer
	for _, gg := range []goldenGraph{
		{"grid60x50-unit", must(gen.Grid2D(60, 50, false, 0))},
		{"er3000-unit", must(gen.ErdosRenyi(3000, 12000, false, 17))},
		{"rmat11-unit", must(gen.RMAT(11, 8, false, 19))},
	} {
		for _, p := range []int{3, 4, 7, 16} {
			line := goldenLine(t, gg, p, 1, false)
			for run := 2; run <= 3; run++ {
				if again := goldenLine(t, gg, p, 1, false); again != line {
					t.Errorf("run %d differs from run 1:\n  %s  %s", run, line, again)
				}
			}
			got.WriteString(line)
		}
	}
	checkGolden(t, "testdata/reproducible.golden", got.Bytes())
}

// TestContractMatchesEdgeListBuild holds the CSR-to-CSR contraction to the
// construction it replaced: the coarse edge list, parallels and all, handed to
// graph.BuildUndirected to sum. Same rows, same order, the same sum to the
// last bit on both arcs — on weighted, unit-weight and weightless (W == nil)
// graphs, down every level of the coarsening.
func TestContractMatchesEdgeListBuild(t *testing.T) {
	graphs := goldenGraphs(t)[1:]
	unit := mustGraph(t)(gen.RMAT(10, 8, false, 23))
	bare := unit.Clone()
	bare.W = nil
	graphs = append(graphs, goldenGraph{"rmat10-unit", unit}, goldenGraph{"rmat10-bare", bare})
	for _, gg := range graphs {
		n := gg.g.NumVertices()
		rng := gen.NewRNG(3)
		s := &scratch{perm: make([]graph.Vertex, n), mate: make([]graph.Vertex, n)}
		lev := &level{g: gg.g, vwgt: unitWeights(n)}
		for depth := 0; lev.g.NumVertices() > 64; depth++ {
			next := coarsen(lev, rng, s)
			if next == nil {
				break
			}
			var edges []graph.Edge
			for v := 0; v < lev.g.NumVertices(); v++ {
				for k, u := range lev.g.Neighbors(graph.Vertex(v)) {
					if cv, cu := lev.coarseOf[v], lev.coarseOf[u]; cv < cu {
						edges = append(edges, graph.Edge{U: cv, V: cu, W: lev.g.Weight(lev.g.Xadj[v] + int64(k))})
					}
				}
			}
			want, err := graph.BuildUndirected(next.g.NumVertices(), edges, graph.DedupeSum)
			if err != nil {
				t.Fatal(err)
			}
			if err := next.g.Validate(); err != nil {
				t.Fatalf("%s level %d: %v", gg.name, depth+1, err)
			}
			if !slices.Equal(next.g.Xadj, want.Xadj) || !slices.Equal(next.g.Adj, want.Adj) || !slices.Equal(next.g.W, want.W) {
				t.Fatalf("%s level %d: contraction differs from the edge-list build", gg.name, depth+1)
			}
			var total int64
			for _, w := range next.vwgt {
				total += w
			}
			if total != int64(n) {
				t.Fatalf("%s level %d: vertex weights sum to %d, want %d", gg.name, depth+1, total, n)
			}
			lev = next
		}
	}
}
