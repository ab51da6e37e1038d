package matching

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// rowScanCase checks both candidate-mate scans on one row against an oracle:
// center vertex c has neighbors ids (ascending, c not among them) with
// weights wts (nil: an unweighted graph), of which those with gone[k] set are
// no longer available. The oracle is the arc precedes puts first among the
// live ones, compared as whole edges {c, u}. The sequential scan reads c's row
// of the star graph; the parallel one reads c's row of rank 0's share of the
// same star cut over two ranks, where the neighbors of odd id are ghosts — so
// the row's local indices are not ascending, only its global ids are.
func rowScanCase(t *testing.T, c int32, ids []int32, wts []float64, gone []bool) {
	t.Helper()
	weight := func(k int) float64 {
		if wts == nil {
			return 1
		}
		return wts[k]
	}
	want := graph.None
	for k, u := range ids {
		if gone[k] {
			continue
		}
		if want == graph.None || precedes(weight(k), c, u, weight(slices.Index(ids, want)), c, want) {
			want = u
		}
	}

	n := int(c) + 1
	if len(ids) > 0 {
		n = max(n, int(ids[len(ids)-1])+1)
	}
	edges := make([]graph.Edge, len(ids))
	for k, u := range ids {
		edges[k] = graph.Edge{U: c, V: u, W: weight(k)}
	}
	g, err := graph.BuildUndirected(n, edges, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	if wts == nil {
		g.W = nil
	}
	goneAt := make([]bool, n)
	for k, u := range ids {
		goneAt[u] = gone[k]
	}
	seq := graph.None
	if k := bestArc(g.Neighbors(c), g.Weights(c), goneAt); k >= 0 {
		seq = g.Neighbors(c)[k]
	}

	part := &partition.Partition{P: 2, Part: make([]int32, n)}
	for u := range part.Part {
		part.Part[u] = int32(u % 2)
	}
	part.Part[c] = 0
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	d := shares[0]
	s := &matchState{rank: rank{d: d}, gone: make([]bool, d.NLocal+d.NGhost)}
	for k, u := range ids {
		l, _ := d.LocalOf(int64(u))
		s.gone[l] = gone[k]
	}
	lc, _ := d.LocalOf(int64(c))
	par := graph.None
	if best, arc := s.computeCandidate(lc); best != noCM {
		par = graph.Vertex(d.GlobalOf(best))
		if d.Adj[arc] != best {
			t.Fatalf("row %v: the parallel scan names %d but its arc %d leads to local %d", ids, best, arc, d.Adj[arc])
		}
	}
	if seq != want || par != want {
		t.Fatalf("center %d, row %v, weights %v, gone %v: sequential scan picks %d, parallel %d, precedes %d",
			c, ids, wts, gone, seq, par, want)
	}
}

// TestRowScanIsPrecedes pins the tie rule both matchings rest on: over rows
// ascending in id, the earliest of the heaviest live arcs is the one precedes
// puts first — random rows with weights in {1, 2, 3} (ties everywhere),
// unweighted rows, and random gone masks.
func TestRowScanIsPrecedes(t *testing.T) {
	rng := gen.NewRNG(7)
	for i := 0; i < 2000; i++ {
		c := int32(rng.Intn(40))
		var ids []int32
		for u := int32(0); u < 40; u++ {
			if u != c && rng.Intn(4) == 0 {
				ids = append(ids, u)
			}
		}
		var wts []float64
		if i%4 != 0 {
			wts = make([]float64, len(ids))
			for k := range wts {
				wts[k] = float64(1 + rng.Intn(3))
			}
		}
		gone := make([]bool, len(ids))
		for k := range gone {
			gone[k] = rng.Intn(3) == 0
		}
		rowScanCase(t, c, ids, wts, gone)
	}
}

// crossEdgeShares distributes a single edge over two ranks: each rank's only
// vertex must hear from the other before it can decide.
func crossEdgeShares(t *testing.T) []*dgraph.DistGraph {
	t.Helper()
	g, err := graph.BuildUndirected(2, []graph.Edge{{U: 0, V: 1, W: 1}}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, &partition.Partition{P: 2, Part: []int32{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return shares
}

// TestKernelsRefuseForeignFamily: a bundle of a tag family the running kernel
// does not speak is a protocol violation, not something to park. Each rank
// plants the foreign bundle at its peer before the kernel starts, so per-pair
// FIFO puts it ahead of the kernel's own traffic.
func TestKernelsRefuseForeignFamily(t *testing.T) {
	shares := crossEdgeShares(t)
	for _, tc := range []struct {
		name    string
		foreign int
		run     func(c *mpi.Comm) error
	}{
		{"async gets a color notice", mpi.TagColorBase, func(c *mpi.Comm) error {
			_, err := Parallel(c, shares[c.Rank()], ParallelOptions{})
			return err
		}},
	} {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			c.Send(1-c.Rank(), tc.foreign, make([]byte, RecordBytes))
			return tc.run(c)
		}, mpi.WithDeadline(10*time.Second))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("with tag %d", tc.foreign)) {
			t.Errorf("%s: err = %v, want a refusal of tag %d", tc.name, err, tc.foreign)
		}
	}
}
