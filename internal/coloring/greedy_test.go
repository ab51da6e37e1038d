package coloring

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

func TestGreedyOnTriangle(t *testing.T) {
	g, err := graph.BuildUndirected(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 2, W: 1}, {U: 1, V: 2, W: 1},
	}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Greedy(g, order.Natural, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(g); err != nil {
		t.Fatal(err)
	}
	if c.NumColors() != 3 {
		t.Fatalf("triangle colored with %d colors, want 3", c.NumColors())
	}
}

func TestGreedyGridTwoColorsWithGoodOrder(t *testing.T) {
	// Five-point grids are bipartite; smallest-last ordering achieves the
	// optimum 2 colors (the paper: "a five-point grid graph can be colored
	// using just two colors").
	g, err := gen.Grid2D(12, 12, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Greedy(g, order.SmallestLast, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Verify(g); err != nil {
		t.Fatal(err)
	}
	if c.NumColors() != 2 {
		t.Fatalf("grid colored with %d colors, want 2 (smallest-last)", c.NumColors())
	}
}

func TestGreedyRespectsDeltaPlusOne(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g, err := gen.RMAT(9, 8, false, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []order.Ordering{order.Natural, order.Random, order.LargestFirst, order.SmallestLast, order.IncidenceDegree} {
			c, err := Greedy(g, o, seed)
			if err != nil {
				t.Fatalf("%v: %v", o, err)
			}
			if err := c.Verify(g); err != nil {
				t.Fatalf("%v: %v", o, err)
			}
			if c.NumColors() > g.MaxDegree()+1 {
				t.Fatalf("%v: %d colors exceeds Δ+1 = %d", o, c.NumColors(), g.MaxDegree()+1)
			}
		}
	}
}

func TestGreedyOrderExactSequence(t *testing.T) {
	// Path 0-1-2: coloring order 1,0,2 gives 1→0, 0→1, 2→1.
	g, err := graph.BuildUndirected(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
	}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	c := GreedyOrder(g, []graph.Vertex{1, 0, 2})
	want := Colors{1, 0, 1}
	for v := range want {
		if c[v] != want[v] {
			t.Fatalf("colors = %v, want %v", c, want)
		}
	}
}

func TestVerifyCatchesBadColorings(t *testing.T) {
	g, _ := graph.BuildUndirected(2, []graph.Edge{{U: 0, V: 1, W: 1}}, graph.DedupeFirst)
	if err := (Colors{0, 0}).Verify(g); err == nil {
		t.Error("accepted conflicting coloring")
	}
	if err := (Colors{0, -1}).Verify(g); err == nil {
		t.Error("accepted incomplete coloring")
	}
	if err := (Colors{0}).Verify(g); err == nil {
		t.Error("accepted short coloring")
	}
	if err := (Colors{0, 1}).Verify(g); err != nil {
		t.Errorf("rejected proper coloring: %v", err)
	}
}

func TestNumColors(t *testing.T) {
	if got := (Colors{}).NumColors(); got != 0 {
		t.Fatalf("empty NumColors = %d", got)
	}
	if got := (Colors{0, 3, 1}).NumColors(); got != 4 {
		t.Fatalf("NumColors = %d, want 4", got)
	}
}

func TestBounds(t *testing.T) {
	// Complete graph K5: clique lower bound 5, upper 5.
	var edges []graph.Edge
	for u := graph.Vertex(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			edges = append(edges, graph.Edge{U: u, V: v, W: 1})
		}
	}
	k5, _ := graph.BuildUndirected(5, edges, graph.DedupeFirst)
	lo, hi := Bounds(k5)
	if lo != 5 || hi != 5 {
		t.Fatalf("K5 bounds [%d,%d], want [5,5]", lo, hi)
	}
	grid, _ := gen.Grid2D(5, 5, false, 0)
	lo, hi = Bounds(grid)
	if lo < 1 || lo > 2 || hi != 5 {
		t.Fatalf("grid bounds [%d,%d], want lo in [1,2], hi 5", lo, hi)
	}
	empty, _ := graph.BuildUndirected(0, nil, graph.DedupeFirst)
	if lo, hi = Bounds(empty); lo != 0 || hi != 0 {
		t.Fatalf("empty bounds [%d,%d]", lo, hi)
	}
}

func TestStrategyAndModeStrings(t *testing.T) {
	for _, s := range []Strategy{FirstFit, StaggeredFirstFit, LeastUsed, Strategy(9)} {
		if s.String() == "" {
			t.Error("empty Strategy string")
		}
	}
	for _, m := range []CommMode{CommNeighbors, CommCustomizedAll, CommBroadcast, CommMode(9)} {
		if m.String() == "" {
			t.Error("empty CommMode string")
		}
	}
	for _, m := range []CommMode{CommNeighbors, CommCustomizedAll, CommBroadcast} {
		if got, err := ParseCommMode(m.String()); err != nil || got != m {
			t.Errorf("ParseCommMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseCommMode("gossip"); err == nil {
		t.Error("ParseCommMode accepted an unknown mode")
	}
	for _, o := range []VertexOrder{BoundaryFirst, InteriorFirst, Interleaved, VertexOrder(9)} {
		if o.String() == "" {
			t.Error("empty VertexOrder string")
		}
	}
	for _, p := range []ConflictPolicy{ConflictRandom, ConflictMinID} {
		if p.String() == "" {
			t.Error("empty ConflictPolicy string")
		}
	}
}

// Property: greedy first-fit over any ordering is proper and within Δ+1 on
// arbitrary random graphs.
func TestQuickGreedyProper(t *testing.T) {
	f := func(nRaw, mRaw uint8, seed uint64) bool {
		n := int(nRaw)%40 + 1
		g, err := gen.ErdosRenyi(n, int64(mRaw)*2, false, seed)
		if err != nil {
			return false
		}
		for _, o := range []order.Ordering{order.Natural, order.Random, order.SmallestLast} {
			c, err := Greedy(g, o, seed)
			if err != nil || c.Verify(g) != nil || c.NumColors() > g.MaxDegree()+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestColorsRoundTrip(t *testing.T) {
	g, err := gen.ErdosRenyi(50, 200, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Greedy(g, order.Natural, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteColors(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColors(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for v := range c {
		if got[v] != c[v] {
			t.Fatalf("vertex %d color %d, want %d", v, got[v], c[v])
		}
	}
	path := filepath.Join(t.TempDir(), "c.txt")
	var file bytes.Buffer
	if err := WriteColors(&file, c); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := ReadColorsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fromFile.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestReadColorsErrors(t *testing.T) {
	for name, in := range map[string]string{
		"color before header": "3\n",
		"bad header":          "coloring x\n",
		"too many colors":     "coloring 1\n0\n1\n",
		"too few colors":      "coloring 2\n0\n",
		"garbage":             "coloring 1\nzzz\n",
		"no header":           "# nothing\n",
		"second header":       "coloring 3\n1\n2\n3\ncoloring 5\n7\n8\n", // two result files concatenated
	} {
		if _, err := ReadColors(bytes.NewBufferString(in)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name == "second header" && !strings.Contains(err.Error(), "line 5") {
			t.Errorf("%s: %v, want the header's line named", name, err)
		}
	}
}
