package coloring

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

func TestGreedyDistance2Proper(t *testing.T) {
	g, err := gen.Grid2D(10, 10, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := GreedyDistance2(g, order.Natural, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDistance2(g, c); err != nil {
		t.Fatal(err)
	}
	// A grid interior vertex has 4+8 distance-<=2 neighbors; the 5-point
	// grid's distance-2 chromatic number is 5 (the stencil size); first-fit
	// in natural order should stay close.
	if got := c.NumColors(); got < 5 || got > 9 {
		t.Fatalf("distance-2 colors = %d, want in [5, 9]", got)
	}
	// Distance-1 verification also passes (distance-2 is stronger).
	if err := c.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyDistance2BoundsAndStar(t *testing.T) {
	// Star K1,6: all leaves are pairwise at distance 2 — 7 colors needed.
	edges := make([]graph.Edge, 6)
	for i := range edges {
		edges[i] = graph.Edge{U: 0, V: graph.Vertex(i + 1), W: 1}
	}
	star, err := graph.BuildUndirected(7, edges, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	c, err := GreedyDistance2(star, order.Natural, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDistance2(star, c); err != nil {
		t.Fatal(err)
	}
	if c.NumColors() != 7 {
		t.Fatalf("star distance-2 colors = %d, want 7", c.NumColors())
	}
}

func TestVerifyDistance2CatchesViolations(t *testing.T) {
	// Path 0-1-2: colors {0,1,0} is distance-1 proper but 0 and 2 collide
	// at distance 2.
	g, err := graph.BuildUndirected(3, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
	}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyDistance2(g, Colors{0, 1, 0}); err == nil {
		t.Fatal("accepted distance-2 violation")
	}
	if err := VerifyDistance2(g, Colors{0, 1, 2}); err != nil {
		t.Fatalf("rejected proper distance-2 coloring: %v", err)
	}
}

// Property: distance-2 greedy is distance-2 proper.
func TestQuickDistance2(t *testing.T) {
	f := func(nRaw, mRaw uint8, seed uint64) bool {
		n := int(nRaw)%40 + 1
		g, err := gen.ErdosRenyi(n, int64(mRaw), false, seed)
		if err != nil {
			return false
		}
		d2, err := GreedyDistance2(g, order.Natural, 0)
		if err != nil {
			return false
		}
		return VerifyDistance2(g, d2) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
