package dgraph

import "fmt"

// GridSpec describes a k1 × k2 five-point grid distributed uniformly over a
// pr × pc processor grid — the paper's weak/strong-scaling input ("the grid
// graphs were generated in parallel, distributed in a two-dimensional fashion
// among the available processors", Section 5.1). Its shares are cut like any
// other input's (gen.Grid2D, partition.Grid2D, then Distribute); the spec
// answers by block arithmetic what each share holds, at rank counts where
// none is built.
type GridSpec struct {
	K1, K2 int
	PR, PC int
}

// Validate checks the spec.
func (s GridSpec) Validate() error {
	if s.K1 <= 0 || s.K2 <= 0 {
		return fmt.Errorf("dgraph: non-positive grid %dx%d", s.K1, s.K2)
	}
	if s.PR <= 0 || s.PC <= 0 {
		return fmt.Errorf("dgraph: non-positive processor grid %dx%d", s.PR, s.PC)
	}
	if s.PR > s.K1 || s.PC > s.K2 {
		return fmt.Errorf("dgraph: processor grid %dx%d exceeds graph grid %dx%d", s.PR, s.PC, s.K1, s.K2)
	}
	return nil
}

// P reports the total rank count of the spec.
func (s GridSpec) P() int { return s.PR * s.PC }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// blockOf returns the row/column range owned by processor-grid coordinates
// (pi, pj), consistent with partition.Grid2D's floor-division assignment.
func (s GridSpec) blockOf(pi, pj int) (rLo, rHi, cLo, cHi int) {
	rLo = ceilDiv(pi*s.K1, s.PR)
	rHi = ceilDiv((pi+1)*s.K1, s.PR)
	cLo = ceilDiv(pj*s.K2, s.PC)
	cHi = ceilDiv((pj+1)*s.K2, s.PC)
	return
}

// RankStructure computes the structural profile of one rank's share without
// building it: owned vertices, stored arcs, cross arcs, and neighbor-rank
// count. The experiment harness uses it to synthesize model inputs at rank
// counts far beyond what the host can run (e.g. the paper's 16,384).
func (s GridSpec) RankStructure(rank int) (nLocal int, arcs, crossArcs int64, neighborRanks int, err error) {
	if err := s.Validate(); err != nil {
		return 0, 0, 0, 0, err
	}
	if rank < 0 || rank >= s.P() {
		return 0, 0, 0, 0, fmt.Errorf("dgraph: rank %d of %d", rank, s.P())
	}
	pi, pj := rank/s.PC, rank%s.PC
	rLo, rHi, cLo, cHi := s.blockOf(pi, pj)
	rows, cols := int64(rHi-rLo), int64(cHi-cLo)
	nLocal = int(rows * cols)
	arcs = 4 * rows * cols
	if rLo == 0 {
		arcs -= cols
	}
	if rHi == s.K1 {
		arcs -= cols
	}
	if cLo == 0 {
		arcs -= rows
	}
	if cHi == s.K2 {
		arcs -= rows
	}
	if rLo > 0 {
		crossArcs += cols
		neighborRanks++
	}
	if rHi < s.K1 {
		crossArcs += cols
		neighborRanks++
	}
	if cLo > 0 {
		crossArcs += rows
		neighborRanks++
	}
	if cHi < s.K2 {
		crossArcs += rows
		neighborRanks++
	}
	return nLocal, arcs, crossArcs, neighborRanks, nil
}
