package matching

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestVerifyMaximalReports pins what VerifyMaximal says and about which edge:
// the texts are what a daemon answers a failed job with, and the edge is the
// first one in (lower endpoint, row position) order, however the scan that
// finds it is written. The table was recorded from the every-edge walk that
// preceded the free-rows scan.
func TestVerifyMaximalReports(t *testing.T) {
	const none = graph.None
	build := func(n int, edges ...graph.Edge) *graph.Graph {
		t.Helper()
		g, err := graph.BuildUndirected(n, edges, graph.DedupeFirst)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	e := func(u, v graph.Vertex) graph.Edge { return graph.Edge{U: u, V: v, W: 1} }
	path6 := build(6, e(0, 1), e(1, 2), e(2, 3), e(3, 4), e(4, 5))
	// A star centred on the highest id: every row but the last holds only a
	// higher neighbour, the last only lower ones.
	star := build(5, e(0, 4), e(1, 4), e(2, 4), e(3, 4))
	// Two free edges; the one met first has the lower first endpoint.
	two := build(6, e(4, 5), e(1, 3), e(0, 2), e(2, 3))
	grid, err := gen.Grid2D(4, 4, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	maximal := LocallyDominant(grid)
	// Free vertex 0's edge of a maximal matching: that edge, and any edge from
	// its endpoints to an already free neighbour, is now a violation.
	freed := append(Mates(nil), maximal...)
	freed[freed[0]], freed[0] = none, none

	for _, tc := range []struct {
		name string
		g    *graph.Graph
		m    Mates
		want string // "" = accepted
	}{
		{"maximal", grid, maximal, ""},
		{"perfect", path6, Mates{1, 0, 3, 2, 5, 4}, ""},
		{"maximal, free vertices apart", path6, Mates{none, 2, 1, 4, 3, none}, ""},
		{"no edges", build(3), Mates{none, none, none}, ""},
		{"empty graph", build(0), Mates{}, ""},
		{"empty matching", path6, Mates{none, none, none, none, none, none},
			"matching: not maximal, edge {0,1} has two free endpoints"},
		{"free edge in the middle", path6, Mates{1, 0, none, none, 5, 4},
			"matching: not maximal, edge {2,3} has two free endpoints"},
		{"free edge at the end", path6, Mates{1, 0, 3, 2, none, none},
			"matching: not maximal, edge {4,5} has two free endpoints"},
		{"free edge seen from its lower endpoint", star, Mates{none, none, none, none, none},
			"matching: not maximal, edge {0,4} has two free endpoints"},
		{"star, lower rows matched away", build(5, e(0, 1), e(2, 4), e(3, 4)), Mates{1, 0, none, none, none},
			"matching: not maximal, edge {2,4} has two free endpoints"},
		{"two free edges", two, Mates{none, none, none, none, 5, 4},
			"matching: not maximal, edge {0,2} has two free endpoints"},
		{"second neighbour of the row", two, Mates{2, none, 0, none, 5, 4},
			"matching: not maximal, edge {1,3} has two free endpoints"},
		{"one edge freed", grid, freed,
			"matching: not maximal, edge {0,1} has two free endpoints"},
		{"short", path6, Mates{1, 0},
			"matching: 2 mates for 6 vertices"},
		{"out of range", path6, Mates{7, none, none, none, none, none},
			"matching: vertex 0 matched to out-of-range 7"},
		{"negative mate", path6, Mates{none, -3, none, none, none, none},
			"matching: vertex 1 matched to out-of-range -3"},
		{"self", path6, Mates{none, none, 2, none, none, none},
			"matching: vertex 2 matched to itself"},
		{"asymmetric", path6, Mates{1, 2, 1, none, none, none},
			"matching: asymmetric mates 0->1 but 1->2"},
		{"asymmetric to a free vertex", path6, Mates{none, none, none, 4, none, none},
			"matching: asymmetric mates 3->4 but 4->-1"},
		{"non-edge", path6, Mates{2, none, 0, none, none, none},
			"matching: matched pair {0,2} is not an edge"},
		// Validity is judged before maximality, whichever comes first by id.
		{"non-maximal and invalid", path6, Mates{none, none, none, none, 4, none},
			"matching: vertex 4 matched to itself"},
	} {
		err := tc.m.VerifyMaximal(tc.g)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: VerifyMaximal = %q, want %q", tc.name, got, tc.want)
		}
	}

	// Every way of freeing one matched edge of the grid's matching, against
	// the walk over every edge.
	for v, u := range maximal {
		if u == none || graph.Vertex(v) > u {
			continue
		}
		m := append(Mates(nil), maximal...)
		m[v], m[u] = none, none
		want := ""
		grid.ForEachEdge(func(a, b graph.Vertex, _ float64) {
			if want == "" && m[a] == none && m[b] == none {
				want = fmt.Sprintf("matching: not maximal, edge {%d,%d} has two free endpoints", a, b)
			}
		})
		if err := m.VerifyMaximal(grid); err == nil || err.Error() != want {
			t.Errorf("edge {%d,%d} freed: VerifyMaximal = %v, want %q", v, u, err, want)
		}
	}
}
