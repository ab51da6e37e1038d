package graph_test

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// precedes is the matchings' edge order, restated as the oracle of the scan:
// heavier first, then lexicographic on the sorted endpoint pair.
func precedes(wa float64, a1, a2 int32, wb float64, b1, b2 int32) bool {
	if wa != wb {
		return wa > wb
	}
	a1, a2 = min(a1, a2), max(a1, a2)
	b1, b2 = min(b1, b2), max(b1, b2)
	if a1 != b1 {
		return a1 < b1
	}
	return a2 < b2
}

// rowScanCase checks BestArc on one row against the oracle: center vertex c
// has neighbors ids (ascending, c not among them) with weights wts (nil: an
// unweighted graph), of which those with gone[k] set are no longer available.
// The oracle is the arc precedes puts first among the live ones, compared as
// whole edges {c, u}. The scan reads c's row of the star graph, and c's row of
// rank 0's share of the same star cut over two ranks, where the neighbors of
// odd id are ghosts — so the row's local indices are not ascending, only its
// global ids are. That share's Preferred entry for c must be the oracle's
// pick with nothing gone.
func rowScanCase(t *testing.T, c int32, ids []int32, wts []float64, gone []bool) {
	t.Helper()
	weight := func(k int) float64 {
		if wts == nil {
			return 1
		}
		return wts[k]
	}
	first := func(gone []bool) int32 {
		want, at := graph.None, -1
		for k, u := range ids {
			if !gone[k] && (at < 0 || precedes(weight(k), c, u, weight(at), c, want)) {
				want, at = u, k
			}
		}
		return want
	}
	want, wantFirst := first(gone), first(make([]bool, len(ids)))

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
	if k := graph.BestArc(g.Neighbors(c), g.Weights(c), goneAt); k >= 0 {
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
	goneLocal := make([]bool, d.NLocal+d.NGhost)
	for k, u := range ids {
		l, _ := d.LocalOf(int64(u))
		goneLocal[l] = gone[k]
	}
	lc, _ := d.LocalOf(int64(c))
	named := func(k int) int32 {
		if k < 0 {
			return graph.None
		}
		return int32(d.GlobalOf(d.Neighbors(lc)[k]))
	}
	par := named(graph.BestArc(d.Neighbors(lc), d.Weights(lc), goneLocal))
	preferred := named(int(d.Preferred[lc]))
	if seq != want || par != want || preferred != wantFirst {
		t.Fatalf("center %d, row %v, weights %v, gone %v: the scan picks %d on the graph and %d on the share, precedes %d; Preferred names %d, precedes with nothing gone %d",
			c, ids, wts, gone, seq, par, want, preferred, wantFirst)
	}
}

// scanWeights are the weights the scan cases draw from: ties everywhere,
// negative weights, and both zeros, which compare equal and so tie as well.
var scanWeights = []float64{-2, -1, math.Copysign(0, -1), 0, 1, 2, 3}

// TestRowScanIsPrecedes pins the tie rule the matchings rest on: over rows
// ascending in id, the earliest of the heaviest live arcs is the one precedes
// puts first — random rows with weights from scanWeights, rows of negative
// weights only, unweighted rows, and random gone masks.
func TestRowScanIsPrecedes(t *testing.T) {
	rng := gen.NewRNG(7)
	for i := 0; i < 3000; i++ {
		c := int32(rng.Intn(40))
		var ids []int32
		for u := int32(0); u < 40; u++ {
			if u != c && rng.Intn(4) == 0 {
				ids = append(ids, u)
			}
		}
		var wts []float64
		if i%4 != 0 {
			palette := scanWeights
			if i%4 == 1 {
				palette = scanWeights[:3] // negative weights only
			}
			wts = make([]float64, len(ids))
			for k := range wts {
				wts[k] = palette[rng.Intn(len(palette))]
			}
		}
		gone := make([]bool, len(ids))
		for k := range gone {
			gone[k] = rng.Intn(3) == 0
		}
		rowScanCase(t, c, ids, wts, gone)
	}
}

// FuzzCandidateScan runs rowScanCase on rows read out of arbitrary bytes:
// every byte of ids other than the center names a neighbor (so a row has at
// most 255 arcs), the k-th weight is scanWeights[wts[k mod len(wts)] mod
// len(scanWeights)] (so ties abound, and negative weights and both zeros
// occur), and the k-th bit of gone marks the k-th neighbor gone.
func FuzzCandidateScan(f *testing.F) {
	f.Add(byte(0), []byte{}, []byte{}, []byte{}, true)
	f.Add(byte(3), []byte{1, 2, 4, 5, 9}, []byte{4, 4, 5, 5, 6}, []byte{0x01}, true)
	f.Add(byte(9), []byte{200, 1, 7, 7, 30}, []byte{6}, []byte{0xfe}, true)
	f.Add(byte(5), []byte{0, 1, 2, 3, 4, 6}, []byte{}, []byte{0x03}, false)
	f.Add(byte(4), []byte{1, 2, 3, 5, 6}, []byte{2, 3, 2, 3, 2}, []byte{0x00}, true)  // -0 and +0 only
	f.Add(byte(8), []byte{1, 2, 3, 9, 12}, []byte{0, 1, 0, 1, 2}, []byte{0x11}, true) // negative only
	f.Fuzz(func(t *testing.T, c byte, idBytes, wtBytes, goneBits []byte, weighted bool) {
		var ids []int32
		for _, b := range idBytes {
			if b != c {
				ids = append(ids, int32(b))
			}
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		var wts []float64
		if weighted {
			wts = make([]float64, len(ids))
			for k := range wts {
				wts[k] = 1
				if len(wtBytes) > 0 {
					wts[k] = scanWeights[int(wtBytes[k%len(wtBytes)])%len(scanWeights)]
				}
			}
		}
		gone := make([]bool, len(ids))
		for k := range gone {
			gone[k] = k/8 < len(goneBits) && goneBits[k/8]>>(k%8)&1 == 1
		}
		rowScanCase(t, int32(c), ids, wts, gone)
	})
}
