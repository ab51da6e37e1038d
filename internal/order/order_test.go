package order

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func allOrderings() []Ordering {
	return []Ordering{Natural, Random, LargestFirst, SmallestLast, IncidenceDegree, SaturationDegree}
}

func TestAllOrderingsArePermutations(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 600, false, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range allOrderings() {
		ord, err := Compute(g, o, 9)
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		if err := validate(g, ord); err != nil {
			t.Fatalf("%v: %v", o, err)
		}
	}
}

func TestNaturalOrder(t *testing.T) {
	g, _ := gen.Grid2D(3, 3, false, 0)
	ord, err := Compute(g, Natural, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ord {
		if int(v) != i {
			t.Fatalf("natural order broken at %d: %d", i, v)
		}
	}
}

func TestLargestFirstMonotone(t *testing.T) {
	g, err := gen.RMAT(8, 8, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := Compute(g, LargestFirst, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ord); i++ {
		if g.Degree(ord[i-1]) < g.Degree(ord[i]) {
			t.Fatalf("degree increases at position %d", i)
		}
	}
}

func TestSmallestLastOnStar(t *testing.T) {
	// Star K1,5: the hub must be ordered first (removed last).
	edges := []graph.Edge{}
	for leaf := graph.Vertex(1); leaf <= 5; leaf++ {
		edges = append(edges, graph.Edge{U: 0, V: leaf, W: 1})
	}
	g, err := graph.BuildUndirected(6, edges, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := Compute(g, SmallestLast, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Leaves peel off first (removed first = ordered last); once four leaves
	// are gone the hub and the final leaf both have degree 1, so the hub must
	// land in one of the first two positions.
	if ord[0] != 0 && ord[1] != 0 {
		t.Fatalf("smallest-last order %v does not place hub 0 in first two positions", ord)
	}
}

func TestRandomOrderSeeded(t *testing.T) {
	g, _ := gen.Grid2D(8, 8, false, 0)
	a, _ := Compute(g, Random, 1)
	b, _ := Compute(g, Random, 1)
	c, _ := Compute(g, Random, 2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestParseOrderingRoundTrip(t *testing.T) {
	for _, o := range allOrderings() {
		got, err := ParseOrdering(o.String())
		if err != nil || got != o {
			t.Fatalf("round trip %v: got %v err %v", o, got, err)
		}
	}
	if _, err := ParseOrdering("bogus"); err == nil {
		t.Fatal("accepted bogus name")
	}
}

func TestValidateRejectsBadOrders(t *testing.T) {
	g, _ := gen.Grid2D(2, 2, false, 0)
	if err := validate(g, []graph.Vertex{0, 1, 2}); err == nil {
		t.Error("accepted short order")
	}
	if err := validate(g, []graph.Vertex{0, 1, 2, 2}); err == nil {
		t.Error("accepted duplicate")
	}
	if err := validate(g, []graph.Vertex{0, 1, 2, 9}); err == nil {
		t.Error("accepted out-of-range")
	}
}

func TestOrderingsOnEmptyAndSingleton(t *testing.T) {
	empty, _ := graph.BuildUndirected(0, nil, graph.DedupeFirst)
	single, _ := graph.BuildUndirected(1, nil, graph.DedupeFirst)
	for _, o := range allOrderings() {
		for _, g := range []*graph.Graph{empty, single} {
			ord, err := Compute(g, o, 0)
			if err != nil {
				t.Fatalf("%v on n=%d: %v", o, g.NumVertices(), err)
			}
			if err := validate(g, ord); err != nil {
				t.Fatalf("%v on n=%d: %v", o, g.NumVertices(), err)
			}
		}
	}
}

// Property: every strategy yields a permutation on random graphs.
func TestQuickOrderingsPermute(t *testing.T) {
	f := func(nRaw, mRaw uint8, seed uint64) bool {
		n := int(nRaw)%40 + 1
		m := int64(mRaw)
		g, err := gen.ErdosRenyi(n, m, false, seed)
		if err != nil {
			return false
		}
		for _, o := range allOrderings() {
			ord, err := Compute(g, o, seed)
			if err != nil || validate(g, ord) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// validate checks that ord is a permutation of the vertices of g.
func validate(g *graph.Graph, ord []graph.Vertex) error {
	n := g.NumVertices()
	if len(ord) != n {
		return fmt.Errorf("order: length %d, want %d", len(ord), n)
	}
	seen := make([]bool, n)
	for _, v := range ord {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("order: not a permutation at %d", v)
		}
		seen[v] = true
	}
	return nil
}
