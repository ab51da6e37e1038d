package dgraph

import "fmt"

// Gather assembles one value per global vertex from what each rank computed
// for the vertices it owns: local[rank][v] belongs to the owned vertex with
// local index v of shares[rank], and is converted from the kernels' local
// integer type L to the global result's element type G. It is the one
// per-vertex assembly loop behind matching.Gather, coloring.Gather and the
// dmgm drivers, and it refuses anything but an exact cover: a rank without a
// result, a result that is not one value per owned vertex, a vertex two
// ranks both claim, or shares that leave a vertex unowned.
func Gather[L, G ~int32 | ~int64](shares []*DistGraph, local [][]L) ([]G, error) {
	if len(shares) == 0 || len(shares) != len(local) {
		return nil, fmt.Errorf("gather over %d shares, %d results", len(shares), len(local))
	}
	globalN := shares[0].GlobalN
	if globalN > 1<<31-1 {
		return nil, fmt.Errorf("graph too large to gather (%d vertices)", globalN)
	}
	out := make([]G, globalN)
	owned := make([]bool, globalN)
	covered := 0
	for rank, d := range shares {
		vals := local[rank]
		if vals == nil {
			return nil, fmt.Errorf("rank %d has no result", rank)
		}
		if len(vals) != d.NLocal {
			return nil, fmt.Errorf("rank %d result covers %d of %d vertices", rank, len(vals), d.NLocal)
		}
		for v, x := range vals {
			gid := d.GlobalID[v]
			if owned[gid] {
				return nil, fmt.Errorf("vertex %d owned by two ranks", gid)
			}
			owned[gid] = true
			out[gid] = G(x)
		}
		covered += d.NLocal
	}
	if int64(covered) != globalN {
		return nil, fmt.Errorf("shares cover %d of %d vertices", covered, globalN)
	}
	return out, nil
}
