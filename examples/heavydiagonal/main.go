// Heavy diagonal: the paper's first matching motivation (Section 1, citing
// Duff & Koster) — permute the rows of a sparse matrix so that the diagonal
// carries large entries, improving numerical stability of direct solvers and
// convergence of iterative ones. A maximum-weight matching of the bipartite
// row/column graph with weights |a_ij| yields exactly such a permutation.
//
// This example builds a sparse matrix whose large entries are scattered off
// the diagonal, computes the half-approximate matching in parallel, applies
// the induced row permutation, and reports how much diagonal mass the
// permutation recovered, also comparing against the exact optimum.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/dmgm"
)

func main() {
	const n = 2000
	// A banded matrix whose heaviest entry per row sits off-diagonal.
	var entries []dmgm.Entry
	for i := 0; i < n; i++ {
		for _, off := range []int{-2, -1, 0, 1, 2} {
			j := i + off
			if j < 0 || j >= n {
				continue
			}
			w := 1.0 + float64((i*7+j*13)%10)/10 // small fill entries
			if off == ((i % 3) - 1) {
				w = 100 + float64(i%50) // the dominant entry wanders around the diagonal
			}
			entries = append(entries, dmgm.Entry{Row: i, Col: j, W: w})
		}
	}
	b, err := dmgm.NewBipartite(n, n, entries)
	if err != nil {
		log.Fatal(err)
	}

	diagMass := func(perm []int) float64 {
		var sum float64
		for i := 0; i < n; i++ {
			if perm[i] < 0 {
				continue
			}
			if w, ok := b.EdgeWeight(b.RowID(i), b.ColID(perm[i])); ok {
				sum += w
			}
		}
		return sum
	}

	// Identity permutation baseline.
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	before := diagMass(id)

	// Distributed half-approximate matching over 8 ranks.
	part, err := dmgm.PartitionMultilevel(b.Graph, 8, true, 11)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dmgm.Solve(b.Graph, part, dmgm.Job{Algorithm: dmgm.AlgoMatch})
	if err != nil {
		log.Fatal(err)
	}
	perm := make([]int, n)
	matched := 0
	for i := 0; i < n; i++ {
		perm[i] = -1
		if mate := res.Mates[b.RowID(i)]; mate != dmgm.None {
			perm[i] = int(mate) - n // column index
			matched++
		}
	}
	after := diagMass(perm)

	// Exact optimum for reference (Table 1.1's comparison).
	exact, err := dmgm.MatchExactBipartite(b)
	if err != nil {
		log.Fatal(err)
	}
	optimum := exact.Weight(b.Graph)

	fmt.Printf("matrix: %d x %d, %d nonzeros\n", n, n, len(entries))
	fmt.Printf("diagonal mass, identity permutation:  %12.1f\n", before)
	fmt.Printf("diagonal mass, matched permutation:   %12.1f (%d rows matched)\n", after, matched)
	fmt.Printf("optimal matching weight:              %12.1f\n", optimum)
	fmt.Printf("half-approximation quality:           %11.2f%% (guarantee: >= 50%%)\n",
		100*after/optimum)
	if after < optimum/2-1e-9 {
		log.Fatal("half-approximation bound violated")
	}
	if math.Abs(after-res.Weight) > 1e-6 {
		log.Fatalf("bookkeeping mismatch: diagonal mass %f vs matching weight %f", after, res.Weight)
	}
}
