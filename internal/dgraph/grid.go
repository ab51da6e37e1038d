package dgraph

import (
	"fmt"

	"repro/internal/gen"
)

// GridSpec describes a k1 × k2 five-point grid distributed uniformly over a
// pr × pc processor grid — the paper's weak/strong-scaling input ("the grid
// graphs were generated in parallel, distributed in a two-dimensional fashion
// among the available processors", Section 5.1).
type GridSpec struct {
	K1, K2   int
	PR, PC   int
	Weighted bool
	Seed     uint64
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

// ownerOf returns the rank owning grid node (r, c).
func (s GridSpec) ownerOf(r, c int) int {
	pi := r * s.PR / s.K1
	pj := c * s.PC / s.K2
	return pi*s.PC + pj
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

// BuildGrid constructs rank's local share of the distributed grid directly,
// without ever materializing the global graph — each rank generates its own
// block plus the one-deep halo, and cross-edge weights agree across ranks
// because they are derived deterministically from the global edge ids. This
// is what lets weak-scaling runs grow the input with the rank count, as in
// Fig. 5.1.
func BuildGrid(spec GridSpec, rank int) (*DistGraph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := spec.P()
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("dgraph: rank %d of %d", rank, p)
	}
	pi, pj := rank/spec.PC, rank%spec.PC
	rLo, rHi, cLo, cHi := spec.blockOf(pi, pj)
	rows, cols := rHi-rLo, cHi-cLo
	nLocal := rows * cols

	d := &DistGraph{
		Rank:        rank,
		P:           p,
		GlobalN:     int64(spec.K1) * int64(spec.K2),
		GlobalEdges: int64(spec.K1)*int64(spec.K2-1) + int64(spec.K1-1)*int64(spec.K2),
		NLocal:      nLocal,
	}
	gid := func(r, c int) int64 { return int64(r)*int64(spec.K2) + int64(c) }
	localIdx := func(r, c int) int32 { return int32((r-rLo)*cols + (c - cLo)) }

	halo := 2 * (rows + cols)
	d.GlobalID = make([]int64, nLocal, nLocal+halo)
	for r := rLo; r < rHi; r++ {
		for c := cLo; c < cHi; c++ {
			d.GlobalID[localIdx(r, c)] = gid(r, c)
		}
	}
	// Ghost halo: the four one-deep strips. The order below is ascending in
	// global id: north strip < all local rows < south strip, and within each
	// local row west < row < east; across rows ids grow with r.
	d.GhostOwner = make([]int32, 0, halo)
	seenRank := make([]bool, p)
	addGhost := func(r, c int) {
		owner := spec.ownerOf(r, c)
		d.GlobalID = append(d.GlobalID, gid(r, c))
		d.GhostOwner = append(d.GhostOwner, int32(owner))
		seenRank[owner] = true
	}
	if rLo > 0 {
		for c := cLo; c < cHi; c++ {
			addGhost(rLo-1, c)
		}
	}
	for r := rLo; r < rHi; r++ {
		if cLo > 0 {
			addGhost(r, cLo-1)
		}
		if cHi < spec.K2 {
			addGhost(r, cHi)
		}
	}
	if rHi < spec.K1 {
		for c := cLo; c < cHi; c++ {
			addGhost(rHi, c)
		}
	}
	d.NGhost = len(d.GhostOwner)
	for r, seen := range seenRank {
		if seen {
			d.NeighborRanks = append(d.NeighborRanks, r)
		}
	}

	// CSR: up to 4 arcs per vertex.
	d.Xadj = make([]int64, nLocal+1)
	d.Adj = make([]int32, 0, 4*nLocal)
	if spec.Weighted {
		d.W = make([]float64, 0, 4*nLocal)
	}
	d.IsBoundary = make([]bool, nLocal)
	d.CrossOff = make([]int32, nLocal+1)
	d.CrossPos = make([]int32, 0, d.NGhost)
	deg := make([]int32, d.NGhost) // per ghost: its owned neighbors
	addArc := func(v int32, ur, uc int) {
		u := localIdx(ur, uc)
		if ur < rLo || ur >= rHi || uc < cLo || uc >= cHi {
			u, _ = d.LocalOf(gid(ur, uc)) // in the halo
		}
		d.Adj = append(d.Adj, u)
		if spec.Weighted {
			d.W = append(d.W, gen.EdgeWeight(spec.Seed, d.GlobalID[v], gid(ur, uc)))
		}
		if d.IsGhost(u) {
			if !d.IsBoundary[v] {
				d.NumBoundary++
			}
			d.IsBoundary[v] = true
			d.CrossArcs++
			d.CrossPos = append(d.CrossPos, int32(int64(len(d.Adj)-1)-d.Xadj[v]))
			deg[int(u)-nLocal]++
		}
	}
	for r := rLo; r < rHi; r++ {
		for c := cLo; c < cHi; c++ {
			v := localIdx(r, c)
			if r > 0 {
				addArc(v, r-1, c)
			}
			if c > 0 {
				addArc(v, r, c-1)
			}
			if c+1 < spec.K2 {
				addArc(v, r, c+1)
			}
			if r+1 < spec.K1 {
				addArc(v, r+1, c)
			}
			d.Xadj[v+1] = int64(len(d.Adj))
			d.CrossOff[v+1] = int32(len(d.CrossPos))
		}
	}
	d.Preferred = d.preferred(make([]bool, nLocal+d.NGhost))
	d.buildPairs(deg)
	return d, nil
}
