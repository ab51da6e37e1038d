package coloring

import (
	"repro/internal/dgraph"
	"repro/internal/mpi"
)

// JonesPlassmann runs the classic maximal-independent-set-based parallel
// coloring (Jones & Plassmann 1993), the baseline the speculative framework
// was shown to outperform: in each round, every uncolored vertex whose random
// priority r(v) exceeds that of all its uncolored neighbors colors itself
// with the smallest permissible color, then announces the color to the ranks
// owning its neighbors. Unlike the speculative framework it never produces
// conflicts, but it needs more rounds — one per "layer" of the random
// priority order rather than one per surviving conflict generation.
func JonesPlassmann(c *mpi.Comm, d *dgraph.DistGraph, seed uint64, maxRounds int) (*ParallelResult, error) {
	if maxRounds <= 0 {
		maxRounds = 10000
	}
	s, err := newColorState(c, d)
	if err != nil {
		return nil, err
	}
	s.picker = newFirstFit(s.maxDeg + 1)

	// wins: no uncolored neighbor of v outranks it in the random priority
	// order (global-id tie-breaking folded in).
	wins := func(v int32) bool {
		for _, u := range d.Neighbors(v) {
			if s.color[u] < 0 && loses(ConflictRandom, seed, d.GlobalOf(v), d.GlobalOf(u)) {
				return false
			}
		}
		return true
	}

	uncolored := s.allOwned()
	var winners []int32
	for {
		roundTok, err := s.beginRound("jones-plassmann", maxRounds)
		if err != nil {
			return nil, err
		}
		// A vertex colored earlier in the sweep no longer blocks its
		// neighbors, so local chains of the priority order resolve in one
		// round.
		winners = winners[:0]
		waiting := uncolored[:0]
		for _, v := range uncolored {
			if wins(v) {
				s.colors[v] = s.pickFirstFit(v)
				winners = append(winners, v)
			} else {
				waiting = append(waiting, v)
			}
		}
		uncolored = waiting
		s.announce(winners)
		s.c.Barrier()
		s.drain()
		if s.endRound(roundTok, len(uncolored)) {
			return s.result(), nil
		}
	}
}
