package coloring

import (
	"fmt"

	"repro/internal/dgraph"
)

// Gather assembles per-rank parallel coloring results into one global Colors
// array indexed by global vertex id (dgraph.Gather does the per-vertex
// assembly).
func Gather(shares []*dgraph.DistGraph, results []*ParallelResult) (Colors, error) {
	local := make([][]int32, len(results))
	for rank, r := range results {
		if r != nil {
			local[rank] = r.Colors
		}
	}
	colors, err := dgraph.Gather[int32, int32](shares, local)
	if err != nil {
		return nil, fmt.Errorf("coloring: %w", err)
	}
	return colors, nil
}
