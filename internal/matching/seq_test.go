package matching

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteForceMax computes the true maximum-weight matching weight by
// exhaustive search — usable only on tiny graphs.
func bruteForceMax(g *graph.Graph) float64 {
	edges := g.Edges()
	used := make([]bool, g.NumVertices())
	var rec func(i int) float64
	rec = func(i int) float64 {
		if i == len(edges) {
			return 0
		}
		best := rec(i + 1) // skip edge i
		e := edges[i]
		if !used[e.U] && !used[e.V] {
			used[e.U], used[e.V] = true, true
			if w := e.W + rec(i+1); w > best {
				best = w
			}
			used[e.U], used[e.V] = false, false
		}
		return best
	}
	return rec(0)
}

func paperTriangle(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.BuildUndirected(3, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 0, V: 2, W: 2}, {U: 1, V: 2, W: 1},
	}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLocallyDominantPaperExample(t *testing.T) {
	// Fig. 3.1: u=0, v=1, w=2 with weights (u,v)=3, (u,w)=2, (v,w)=1.
	// The locally dominant edge (u,v) is matched; w fails.
	g := paperTriangle(t)
	m := LocallyDominant(g)
	if err := m.VerifyMaximal(g); err != nil {
		t.Fatal(err)
	}
	if m[0] != 1 || m[1] != 0 || m[2] != graph.None {
		t.Fatalf("mates = %v, want [1 0 none]", m)
	}
	if w := m.Weight(g); w != 3 {
		t.Fatalf("weight = %g, want 3", w)
	}
	if m.Cardinality() != 1 {
		t.Fatalf("cardinality = %d, want 1", m.Cardinality())
	}
}

func TestGreedyPaperExample(t *testing.T) {
	g := paperTriangle(t)
	m := Greedy(g)
	if err := m.VerifyMaximal(g); err != nil {
		t.Fatal(err)
	}
	if w := m.Weight(g); w != 3 {
		t.Fatalf("weight = %g, want 3", w)
	}
}

func TestLocallyDominantPathWhereGreedyIsHalf(t *testing.T) {
	// Path a-b-c-d with weights 2, 3, 2: dominant edge is (b,c); the
	// locally-dominant matching takes only it (weight 3) while the optimum
	// takes the two outer edges (weight 4) — the classic 1/2-approx witness
	// shape (here ratio 3/4).
	g, err := graph.BuildUndirected(4, []graph.Edge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 2, V: 3, W: 2},
	}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	m := LocallyDominant(g)
	if err := m.VerifyMaximal(g); err != nil {
		t.Fatal(err)
	}
	if w := m.Weight(g); w != 3 {
		t.Fatalf("weight = %g, want 3", w)
	}
	opt := bruteForceMax(g)
	if w := m.Weight(g); w < opt/2 {
		t.Fatalf("half-approximation violated: %g < %g/2", w, opt)
	}
}

// shapedGraph builds one of the shapes the sequential matching is held to
// Greedy on: weighted Erdős–Rényi graphs (shape 0); rows without weights
// (W == nil, 1); a hub joined to every vertex by the heaviest edges, so that
// its by list holds the whole graph (2); mostly isolated vertices (3); and an
// RMAT graph of about n vertices, weighted (4) and unweighted (5).
func shapedGraph(shape, n int, m int64, seed uint64) (*graph.Graph, error) {
	switch shape {
	case 0:
		return gen.ErdosRenyi(n, m, true, seed)
	case 1:
		g, err := gen.ErdosRenyi(n, m, false, seed)
		if err == nil {
			g.W = nil
		}
		return g, err
	case 2:
		g, err := gen.ErdosRenyi(n, m, true, seed)
		if err != nil {
			return nil, err
		}
		edges := g.Edges()
		for v := 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: 0, V: graph.Vertex(v), W: 1 + gen.EdgeWeight(seed, 0, int64(v))})
		}
		return graph.BuildUndirected(n, edges, graph.DedupeFirst)
	case 3:
		return gen.ErdosRenyi(n, m/8, true, seed)
	default:
		g, err := gen.RMAT(bits.Len(uint(n)), 4, shape == 4, seed)
		if err == nil && shape == 5 {
			g.W = nil
		}
		return g, err
	}
}

const numShapes = 6

// sameAsGreedy reports the first vertex at which LocallyDominant's maximal
// matching of g differs from Greedy's, or an error if it is not maximal.
func sameAsGreedy(g *graph.Graph) error {
	ld := LocallyDominant(g)
	if err := ld.VerifyMaximal(g); err != nil {
		return err
	}
	gr := Greedy(g)
	for v := range ld {
		if ld[v] != gr[v] {
			return fmt.Errorf("vertex %d mates differ: LD %d, greedy %d", v, ld[v], gr[v])
		}
	}
	return nil
}

func TestLocallyDominantEqualsGreedy(t *testing.T) {
	for shape := 0; shape < numShapes; shape++ {
		for seed := uint64(0); seed < 20; seed++ {
			g, err := shapedGraph(shape, 60, 250, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAsGreedy(g); err != nil {
				t.Fatalf("shape %d seed %d: %v", shape, seed, err)
			}
		}
	}
}

func TestLocallyDominantWithTies(t *testing.T) {
	// All weights equal: ties break to the smaller label; on a path
	// 0-1-2-3 the edge (0,1) dominates, then (2,3).
	g, err := graph.BuildUndirected(4, []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 5}, {U: 2, V: 3, W: 5},
	}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	m := LocallyDominant(g)
	if m[0] != 1 || m[2] != 3 {
		t.Fatalf("mates = %v, want 0-1 and 2-3", m)
	}
	// Integer weights tie often; the strict edge order still leaves one
	// matching, so it is compared mate for mate.
	for seed := uint64(0); seed < 10; seed++ {
		rg, err := gen.ErdosRenyi(40, 120, false, seed)
		if err != nil {
			t.Fatal(err)
		}
		u, err := gen.Reweight(rg, gen.WeightInteger, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAsGreedy(u); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestLocallyDominantEdgeCases(t *testing.T) {
	empty, _ := graph.BuildUndirected(0, nil, graph.DedupeFirst)
	if m := LocallyDominant(empty); len(m) != 0 {
		t.Fatal("empty graph mismatch")
	}
	isolated, _ := graph.BuildUndirected(3, nil, graph.DedupeFirst)
	m := LocallyDominant(isolated)
	for v, u := range m {
		if u != graph.None {
			t.Fatalf("isolated vertex %d matched to %d", v, u)
		}
	}
	single, _ := graph.BuildUndirected(2, []graph.Edge{{U: 0, V: 1, W: 7}}, graph.DedupeFirst)
	m = LocallyDominant(single)
	if m[0] != 1 || m[1] != 0 {
		t.Fatalf("single edge not matched: %v", m)
	}
}

func TestVerifyCatchesBadMatchings(t *testing.T) {
	g := paperTriangle(t)
	if err := (Mates{1, 0}).Verify(g); err == nil {
		t.Error("accepted short mates")
	}
	if err := (Mates{1, graph.None, graph.None}).Verify(g); err == nil {
		t.Error("accepted asymmetric mates")
	}
	if err := (Mates{0, graph.None, graph.None}).Verify(g); err == nil {
		t.Error("accepted self-matching")
	}
	if err := (Mates{5, graph.None, graph.None}).Verify(g); err == nil {
		t.Error("accepted out-of-range mate")
	}
	// Non-edge matching: vertices 0 and 1 in a graph without edge {0,1}.
	g2, _ := graph.BuildUndirected(4, []graph.Edge{{U: 0, V: 2, W: 1}, {U: 1, V: 3, W: 1}}, graph.DedupeFirst)
	if err := (Mates{1, 0, graph.None, graph.None}).Verify(g2); err == nil {
		t.Error("accepted matched non-edge")
	}
	// Valid but not maximal.
	if err := (Mates{graph.None, graph.None, graph.None, graph.None}).VerifyMaximal(g2); err == nil {
		t.Error("accepted non-maximal matching")
	}
}

func TestExactBipartiteSmallKnown(t *testing.T) {
	// 2x2: w(0,0)=1, w(0,1)=5, w(1,0)=4, w(1,1)=1.
	// Optimum pairs row0-col1 and row1-col0 for 9.
	b, err := graph.BuildBipartite(2, 2, []graph.Entry{
		{Row: 0, Col: 0, W: 1}, {Row: 0, Col: 1, W: 5},
		{Row: 1, Col: 0, W: 4}, {Row: 1, Col: 1, W: 1},
	}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExactBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(b.Graph); err != nil {
		t.Fatal(err)
	}
	if w := m.Weight(b.Graph); w != 9 {
		t.Fatalf("weight = %g, want 9", w)
	}
}

func TestExactBipartiteLeavesUnprofitableRowsUnmatched(t *testing.T) {
	// Both rows only connect to column 0; heavier row wins, other unmatched.
	b, err := graph.BuildBipartite(2, 1, []graph.Entry{
		{Row: 0, Col: 0, W: 3}, {Row: 1, Col: 0, W: 8},
	}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExactBipartite(b)
	if err != nil {
		t.Fatal(err)
	}
	if w := m.Weight(b.Graph); w != 8 {
		t.Fatalf("weight = %g, want 8", w)
	}
	if m[0] != graph.None {
		t.Fatalf("row 0 should be unmatched, got %d", m[0])
	}
}

func TestExactBipartiteMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		b, err := gen.RandomBipartite(5, 5, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ExactBipartite(b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := m.Verify(b.Graph); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := m.Weight(b.Graph)
		want := bruteForceMax(b.Graph)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: exact weight %g, brute force %g", seed, got, want)
		}
	}
}

func TestExactBipartiteRejectsBadInput(t *testing.T) {
	b, _ := graph.BuildBipartite(1, 1, []graph.Entry{{Row: 0, Col: 0, W: -1}}, graph.DedupeFirst)
	if _, err := ExactBipartite(b); err == nil {
		t.Error("accepted negative weight")
	}
	unweighted := &graph.Bipartite{NRows: 1, NCols: 1}
	g, _ := graph.BuildUndirected(2, []graph.Edge{{U: 0, V: 1, W: 1}}, graph.DedupeFirst)
	g.W = nil
	unweighted.Graph = g
	if _, err := ExactBipartite(unweighted); err == nil {
		t.Error("accepted unweighted graph")
	}
}

func TestHalfApproximationBoundOnBipartite(t *testing.T) {
	// The paper's guarantee: locally-dominant weight >= optimum / 2; and in
	// practice > 90% (Table 1.1 reports 99%+).
	for seed := uint64(0); seed < 10; seed++ {
		b, err := gen.RandomBipartite(40, 40, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		approx := LocallyDominant(b.Graph)
		exact, err := ExactBipartite(b)
		if err != nil {
			t.Fatal(err)
		}
		aw, ew := approx.Weight(b.Graph), exact.Weight(b.Graph)
		if aw < ew/2-1e-9 {
			t.Fatalf("seed %d: approx %g < exact %g / 2", seed, aw, ew)
		}
		if aw > ew+1e-9 {
			t.Fatalf("seed %d: approx %g exceeds exact %g", seed, aw, ew)
		}
	}
}

// Property: on graphs of every shape the locally-dominant matching is a
// valid maximal matching that equals the sorted greedy matching.
func TestQuickLocallyDominant(t *testing.T) {
	f := func(shape, nRaw, mRaw uint8, seed uint64) bool {
		g, err := shapedGraph(int(shape)%numShapes, int(nRaw)%50+1, int64(mRaw)*2, seed)
		return err == nil && sameAsGreedy(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: exact >= locally dominant >= exact/2 on random bipartite graphs.
func TestQuickExactSandwich(t *testing.T) {
	f := func(nRaw uint8, seed uint64) bool {
		n := int(nRaw)%12 + 2
		b, err := gen.RandomBipartite(n, n, 3, seed)
		if err != nil {
			return false
		}
		exact, err := ExactBipartite(b)
		if err != nil || exact.Verify(b.Graph) != nil {
			return false
		}
		approx := LocallyDominant(b.Graph)
		aw, ew := approx.Weight(b.Graph), exact.Weight(b.Graph)
		return aw >= ew/2-1e-9 && aw <= ew+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
