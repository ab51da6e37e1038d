// Jacobian compression: the paper's first coloring motivation (Section 1,
// citing Gebremedhin–Manne–Pothen, "What color is your Jacobian?"). A
// distance-1 coloring of the column intersection graph of a sparse matrix
// partitions the columns into structurally orthogonal groups; a Jacobian
// with n columns can then be recovered from only NumColors directional
// derivatives instead of n.
//
// This example builds a sparse "Jacobian" sparsity pattern, colors its
// column intersection graph with the distributed speculative algorithm, and
// verifies the compression: every pair of columns in a group must touch
// disjoint row sets.
package main

import (
	"fmt"
	"log"

	"repro/dmgm"
)

// jacobianPattern synthesizes the sparsity of a banded PDE-style Jacobian
// with a few dense-ish coupling columns: rows 0..m-1, cols 0..n-1.
func jacobianPattern(m, n int) [][]int {
	cols := make([][]int, n)
	for j := 0; j < n; j++ {
		// Band of width 3 around the diagonal direction.
		base := j * m / n
		for _, r := range []int{base - 1, base, base + 1} {
			if r >= 0 && r < m {
				cols[j] = append(cols[j], r)
			}
		}
		// Periodic coupling: every 16th column also touches a shared row
		// block (e.g. a global constraint).
		if j%16 == 0 {
			cols[j] = append(cols[j], m-1-(j/16)%3)
		}
	}
	return cols
}

func main() {
	const mRows, nCols = 4000, 4000
	cols := jacobianPattern(mRows, nCols)

	// Column intersection graph: columns are adjacent when they share a row.
	rowToCols := make([][]int32, mRows)
	for j, rows := range cols {
		for _, r := range rows {
			rowToCols[r] = append(rowToCols[r], int32(j))
		}
	}
	var edges []dmgm.Edge
	for _, cc := range rowToCols {
		for i := 0; i < len(cc); i++ {
			for k := i + 1; k < len(cc); k++ {
				edges = append(edges, dmgm.Edge{U: cc[i], V: cc[k], W: 1})
			}
		}
	}
	g, err := dmgm.NewGraph(nCols, edges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("column intersection graph: %v\n", g)

	// Distribute over 8 ranks with the multilevel partitioner and color.
	part, err := dmgm.PartitionMultilevel(g, 8, true, 3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dmgm.Solve(g, part, dmgm.Job{Algorithm: dmgm.AlgoColor, Params: dmgm.Params{Seed: 5}})
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := dmgm.ColoringBounds(g)
	fmt.Printf("coloring: %d groups (bounds [%d,%d]) in %d rounds\n",
		res.Colors, lo, hi, res.Rounds)

	// Verify structural orthogonality: within a color class no two columns
	// share a row — so one matrix-vector probe per class recovers all
	// entries of the class.
	seen := make(map[int64]int32) // (color, row) -> column
	for j, rows := range cols {
		c := res.Coloring[j]
		for _, r := range rows {
			key := int64(c)<<32 | int64(r)
			if prev, clash := seen[key]; clash {
				log.Fatalf("columns %d and %d share row %d within color %d", prev, j, r, c)
			}
			seen[key] = int32(j)
		}
	}
	fmt.Printf("compression verified: %d derivative evaluations instead of %d (%.1fx)\n",
		res.Colors, nCols, float64(nCols)/float64(res.Colors))
}
