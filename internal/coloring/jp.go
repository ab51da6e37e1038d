package coloring

import (
	"slices"

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
// priority order rather than one per surviving conflict generation. On the
// core, a round is one superstep, its winners riding the round's fence.
func JonesPlassmann(c *mpi.Comm, d *dgraph.DistGraph, seed uint64) (*ParallelResult, error) {
	s, err := newColorState(c, d)
	if err != nil {
		return nil, err
	}
	s.picker = newFirstFit(d.GlobalMaxDegree + 1)

	// v wins when no uncolored neighbor outranks it in the random priority
	// order (global-id tie-breaking folded in), and then takes first fit. A
	// vertex colored earlier in the sweep no longer blocks its neighbors, so
	// local chains of the priority order resolve in one round.
	pick := func(v int32) int32 {
		for _, u := range d.Neighbors(v) {
			if s.color[u] < 0 && loses(ConflictRandom, seed, d.GlobalOf(v), d.GlobalOf(u)) {
				return -1
			}
		}
		return s.picker.pick(s.color, d.Neighbors(v))
	}
	uncolored := func(u, _ []int32) []int32 {
		return slices.DeleteFunc(u, func(v int32) bool { return s.colors[v] >= 0 })
	}
	if err := s.speculate("jones-plassmann", s.ascending(), -1, max(1, d.NLocal), maxRoundsJP, pick, s.announce, uncolored); err != nil {
		return nil, err
	}
	return s.result(), nil
}
