package matching

import (
	"fmt"

	"repro/internal/dgraph"
	"repro/internal/graph"
)

// Gather assembles the per-rank results of a Parallel run into one global
// Mates array (dgraph.Gather does the per-vertex assembly), then verifies
// that the ranks agree: the two owners of every matched cross edge must each
// name the other endpoint.
func Gather(shares []*dgraph.DistGraph, results []*ParallelResult) (Mates, error) {
	local := make([][]int64, len(results))
	for rank, r := range results {
		if r != nil {
			local[rank] = r.MateGlobal
		}
	}
	// An unmatched vertex is -1 on both sides: MateGlobal's marker is
	// graph.None's value.
	mates, err := dgraph.Gather[int64, graph.Vertex](shares, local)
	if err != nil {
		return nil, fmt.Errorf("matching: %w", err)
	}
	// Symmetry check covers both interior consistency and cross-rank
	// agreement.
	for v, u := range mates {
		if u == graph.None {
			continue
		}
		if u < 0 || int(u) >= len(mates) {
			return nil, fmt.Errorf("matching: vertex %d names mate %d outside the graph", v, u)
		}
		if mates[u] != graph.Vertex(v) {
			return nil, fmt.Errorf("matching: ranks disagree: %d->%d but %d->%d", v, u, u, mates[u])
		}
	}
	return Mates(mates), nil
}
