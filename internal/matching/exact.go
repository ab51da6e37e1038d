package matching

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// ExactBipartite computes a maximum-weight matching of a bipartite graph
// exactly, by the Hungarian method (Kuhn–Munkres) with dual potentials and
// slack arrays, adapted to sparse inputs and to non-perfect matchings: every
// row owns an implicit zero-weight "dummy" exit, so a row whose dual sinks to
// zero simply stays unmatched. With nonnegative weights this yields the true
// maximum-weight matching, which is the quality reference for the paper's
// Table 1.1 ("quality of the suboptimal solutions relative to optimal
// solutions").
//
// The returned Mates covers all NRows+NCols vertices of b.
func ExactBipartite(b *graph.Bipartite) (Mates, error) {
	if err := b.ValidateBipartite(); err != nil {
		return nil, err
	}
	if b.W == nil {
		return nil, fmt.Errorf("matching: exact solver requires edge weights")
	}
	for _, w := range b.W {
		if w < 0 {
			return nil, fmt.Errorf("matching: exact solver requires nonnegative weights, got %g", w)
		}
	}
	nr, nc := b.NRows, b.NCols
	const eps = 1e-12

	// Duals: yr over rows, yc over columns, feasible when
	// yr[r] + yc[c] >= w(r, c) and yr, yc >= 0 (nonnegativity is the dual
	// constraint of the implicit zero-weight dummy edges).
	yr := make([]float64, nr)
	yc := make([]float64, nc)
	for r := 0; r < nr; r++ {
		for _, w := range b.Weights(graph.Vertex(r)) {
			if w > yr[r] {
				yr[r] = w
			}
		}
	}
	rowMate := make([]int, nr)
	colMate := make([]int, nc)
	for i := range rowMate {
		rowMate[i] = -1
	}
	for i := range colMate {
		colMate[i] = -1
	}

	inTreeRow := make([]bool, nr)
	inTreeCol := make([]bool, nc)
	slack := make([]float64, nc)
	for c := range slack {
		slack[c] = math.Inf(1)
	}
	slackRow := make([]int, nc)
	treeReacher := make([]int, nc) // tree row from which each tree col was reached
	treeRows := make([]int, 0, 64)
	treeCols := make([]int, 0, 64)
	liveCols := make([]int, 0, 256) // non-tree cols with finite slack

	addRowToTree := func(r int) {
		inTreeRow[r] = true
		treeRows = append(treeRows, r)
		v := graph.Vertex(r)
		adj := b.Neighbors(v)
		wts := b.Weights(v)
		for k, u := range adj {
			c := int(u) - nr
			if inTreeCol[c] {
				continue
			}
			s := yr[r] + yc[c] - wts[k]
			if math.IsInf(slack[c], 1) {
				liveCols = append(liveCols, c)
			}
			if s < slack[c] {
				slack[c] = s
				slackRow[c] = r
			}
		}
	}

	// augment flips the alternating tree path ending with row endRow taking
	// column endCol (or exiting to its dummy when endCol < 0). Each row on
	// the path hands its previous column to the tree row that reached it.
	augment := func(endRow, endCol int) {
		r, c := endRow, endCol
		for {
			prevC := rowMate[r]
			if c >= 0 {
				rowMate[r] = c
				colMate[c] = r
			} else {
				rowMate[r] = -1
			}
			if prevC < 0 {
				return // reached the tree root (it was free)
			}
			c = prevC
			r = treeReacher[c]
		}
	}

	for start := 0; start < nr; start++ {
		if rowMate[start] != -1 {
			continue
		}
		// Reset phase state.
		for _, r := range treeRows {
			inTreeRow[r] = false
		}
		for _, c := range treeCols {
			inTreeCol[c] = false
		}
		for _, c := range liveCols {
			slack[c] = math.Inf(1)
		}
		for _, c := range treeCols {
			slack[c] = math.Inf(1)
		}
		treeRows = treeRows[:0]
		treeCols = treeCols[:0]
		liveCols = liveCols[:0]
		addRowToTree(start)

		for {
			// δ1: cheapest reachable non-tree column.
			d1 := math.Inf(1)
			bestC := -1
			keep := liveCols[:0]
			for _, c := range liveCols {
				if inTreeCol[c] {
					continue
				}
				keep = append(keep, c)
				if slack[c] < d1 {
					d1 = slack[c]
					bestC = c
				}
			}
			liveCols = keep
			// δ2: cheapest dummy exit among tree rows.
			d2 := math.Inf(1)
			bestR := -1
			for _, r := range treeRows {
				if yr[r] < d2 {
					d2 = yr[r]
					bestR = r
				}
			}
			delta := math.Min(d1, d2)
			if math.IsInf(delta, 1) {
				return nil, fmt.Errorf("matching: hungarian phase stalled (internal error)")
			}
			if delta > eps {
				for _, r := range treeRows {
					yr[r] -= delta
				}
				for _, c := range treeCols {
					yc[c] += delta
				}
				for _, c := range liveCols {
					slack[c] -= delta
				}
				d1 -= delta
				d2 -= delta
			}
			if d2 <= d1 {
				// bestR exits to its dummy (becomes unmatched); the path from
				// it back to the root flips.
				augment(bestR, -1)
				break
			}
			c := bestC
			r := slackRow[c]
			if colMate[c] < 0 {
				augment(r, c) // free column: augmenting path complete
				break
			}
			// Column joins the tree; its current mate row expands the tree.
			inTreeCol[c] = true
			treeCols = append(treeCols, c)
			treeReacher[c] = r
			addRowToTree(colMate[c])
		}
	}

	out := unmatched(nr + nc)
	for r, c := range rowMate {
		if c >= 0 {
			out[r] = graph.Vertex(nr + c)
			out[nr+c] = graph.Vertex(r)
		}
	}
	return out, nil
}
