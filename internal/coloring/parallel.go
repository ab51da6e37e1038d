package coloring

import (
	"fmt"
	"slices"

	"repro/internal/dgraph"
	"repro/internal/mpi"
)

// CommMode selects the communication scheme of the framework (Section 4.2).
type CommMode int

const (
	// CommNeighbors is the paper's new algorithm: customized messages only
	// to neighboring processors — fewer messages AND less volume.
	CommNeighbors CommMode = iota
	// CommCustomizedAll is FIAC: a customized (possibly empty) message to
	// every processor — less volume than broadcast, same message count.
	CommCustomizedAll
	// CommBroadcast is FIAB: the same full bundle to every processor.
	CommBroadcast
)

func (m CommMode) String() string {
	switch m {
	case CommNeighbors:
		return "neighbors"
	case CommCustomizedAll:
		return "customized-all"
	case CommBroadcast:
		return "broadcast"
	}
	return fmt.Sprintf("commmode(%d)", int(m))
}

// ParseCommMode maps a name (as printed by String) back to a CommMode — the
// -comm flag of dmgm-color and the "comm" field of a service job. It is the
// only place the names are parsed, so the daemon and the CLI cannot disagree
// on what a name runs.
func ParseCommMode(s string) (CommMode, error) {
	switch s {
	case "neighbors":
		return CommNeighbors, nil
	case "customized-all":
		return CommCustomizedAll, nil
	case "broadcast":
		return CommBroadcast, nil
	}
	return 0, fmt.Errorf("unknown comm mode %q: want neighbors | customized-all | broadcast", s)
}

// VertexOrder selects the relative order of interior and boundary vertices —
// the framework's "before, after, or interleaved" knob. The experiments in
// the framework paper favor strictly-before or strictly-after.
type VertexOrder int

const (
	// BoundaryFirst colors boundary vertices before interior ones, giving
	// conflicts the longest time to surface while interior work proceeds.
	BoundaryFirst VertexOrder = iota
	// InteriorFirst colors interior vertices first.
	InteriorFirst
	// Interleaved colors vertices in natural local order.
	Interleaved
)

func (o VertexOrder) String() string {
	switch o {
	case BoundaryFirst:
		return "boundary-first"
	case InteriorFirst:
		return "interior-first"
	case Interleaved:
		return "interleaved"
	}
	return fmt.Sprintf("vertexorder(%d)", int(o))
}

// ConflictPolicy selects which endpoint of a conflict edge re-colors.
type ConflictPolicy int

const (
	// ConflictRandom uses the pre-assigned random number r(v) (generated
	// from the vertex's global id as seed, exactly as in Algorithm 4.1):
	// the endpoint with the smaller r re-colors. This is the paper's
	// load-balance-friendly choice.
	ConflictRandom ConflictPolicy = iota
	// ConflictMinID deterministically re-colors the smaller global id — the
	// biased baseline the randomized policy improves on.
	ConflictMinID
)

func (p ConflictPolicy) String() string {
	if p == ConflictMinID {
		return "min-id"
	}
	return "random"
}

// ParallelOptions configures the distributed coloring.
type ParallelOptions struct {
	// SuperstepSize is s in Algorithm 4.1: how many vertices are colored
	// between communication steps. 0 selects 1000, the paper's
	// well-partitioned sweet spot; poorly-partitioned inputs favor ~100.
	SuperstepSize int
	// CommMode selects FIAB / FIAC / the new neighbor-customized scheme.
	CommMode CommMode
	// Order places interior vertices before, after, or interleaved with
	// boundary vertices.
	Order VertexOrder
	// Strategy picks the color-selection rule.
	Strategy Strategy
	// Conflict picks the conflict-resolution policy.
	Conflict ConflictPolicy
	// Seed drives r(v); all ranks must pass the same value.
	Seed uint64
	// MaxRounds aborts a run that fails to converge (safety net; the
	// framework converges in a handful of rounds). 0 selects 64.
	MaxRounds int
}

// ParallelResult is one rank's share of the distributed coloring.
type ParallelResult struct {
	// Colors[v] is the color of owned vertex v (local index).
	Colors []int32
	// Rounds is the number of speculative rounds executed globally.
	Rounds int
	// Conflicts counts this rank's re-colored vertices summed over rounds.
	Conflicts int64
	// NumColors is the global color count (identical on every rank).
	NumColors int
}

// Parallel runs the speculative iterative distance-1 coloring (Algorithm
// 4.1) on this rank's share d. Every rank of the world must call Parallel
// with its own share and identical options.
func Parallel(c *mpi.Comm, d *dgraph.DistGraph, opt ParallelOptions) (*ParallelResult, error) {
	if opt.SuperstepSize == 0 {
		opt.SuperstepSize = 1000
	}
	if opt.SuperstepSize < 1 {
		return nil, fmt.Errorf("coloring: non-positive superstep size %d", opt.SuperstepSize)
	}
	if opt.MaxRounds == 0 {
		opt.MaxRounds = 64
	}
	s, err := newColorState(c, d)
	if err != nil {
		return nil, err
	}
	// Global Δ bounds every first-fit color.
	k := &d1Kernel{colorState: s, opt: opt, maxColors: s.maxDeg + 1}
	s.picker = newFirstFit(k.maxColors)
	k.usage = make([]int64, k.maxColors+1)
	k.staggerAt = d.Rank * k.maxColors / d.P
	if opt.CommMode == CommBroadcast {
		k.elsewhere = make([]int32, d.P)
		for rk := range k.elsewhere {
			k.elsewhere[rk] = int32(len(d.PairWith(rk).Shown))
		}
	}

	// U starts as all owned vertices in the configured order.
	u := k.initialOrder()
	// The paper's defaults — first fit, NEW — are the core's own pick and
	// ship; the other strategies and FIAC / FIAB are this kernel's.
	pick, ship := s.pickFirstFit, s.announce
	if opt.Strategy != FirstFit {
		pick = k.pickColor
	}
	if opt.CommMode != CommNeighbors {
		ship = k.shipToAll
	}
	if err := s.speculate("distance-1", u, opt.SuperstepSize, opt.MaxRounds, pick, ship, k.detect); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// d1Kernel is what distance-1 coloring adds to the core: the color-selection
// strategies and their bookkeeping.
type d1Kernel struct {
	*colorState
	opt       ParallelOptions
	usage     []int64 // per-color local usage, for LeastUsed
	maxColors int     // palette size (global Δ + 1)
	staggerAt int     // starting color for StaggeredFirstFit
	elsewhere []int32 // FIAB, per rank: the index one past its table of this rank's shown vertices
}

// initialOrder lists the owned vertices in the configured interior/boundary
// order, each group ascending. It counts the first group, then places every
// vertex in one pass at its group's cursor — front from the start, back from
// where the first group ends — picked by a conditional move, not a branch.
func (k *d1Kernel) initialOrder() []int32 {
	boundaryFirst := k.opt.Order == BoundaryFirst
	if !boundaryFirst && k.opt.Order != InteriorFirst {
		return k.allOwned()
	}
	back := 0
	for _, b := range k.d.IsBoundary {
		back += bit(b == boundaryFirst)
	}
	u, front := make([]int32, k.d.NLocal), 0
	for v, b := range k.d.IsBoundary {
		f, at := bit(b == boundaryFirst), back
		if f == 1 {
			at = front
		}
		u[at] = int32(v)
		front, back = front+f, back+1-f
	}
	return u
}

// bit is 1 for true and 0 for false, without a branch.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pickColor selects a permissible color for owned vertex v, given current
// knowledge of neighbor colors, by a strategy other than plain first fit
// (which is the fallback when the strategy finds nothing to prefer).
func (k *d1Kernel) pickColor(v int32) int32 {
	f := k.picker
	f.stamp++
	k.markAdjacent(v)
	switch k.opt.Strategy {
	case StaggeredFirstFit:
		// Scan from the per-rank base, wrapping once over [0, maxColors).
		for i := 0; i < k.maxColors; i++ {
			c := (k.staggerAt + i) % k.maxColors
			if f.mark[c] != f.stamp {
				return int32(c)
			}
		}
	case LeastUsed:
		// Among permissible colors not exceeding the locally used palette,
		// prefer the least used.
		best, bestUse := int32(-1), int64(1)<<62
		limit := k.paletteSize()
		for c := 0; c < limit; c++ {
			if f.mark[c] != f.stamp && k.usage[c] < bestUse {
				best, bestUse = int32(c), k.usage[c]
			}
		}
		if best < 0 {
			best = f.firstFree()
		}
		k.usage[best]++
		return best
	}
	return f.firstFree()
}

// paletteSize reports how many colors this rank has used so far, plus one
// (capped at the usage array so LeastUsed never scans out of range).
func (k *d1Kernel) paletteSize() int {
	for c := len(k.usage) - 1; c >= 0; c-- {
		if k.usage[c] > 0 {
			return min(c+2, len(k.usage))
		}
	}
	return 1
}

// shipToAll sends the freshly assigned colors of the chunk's boundary
// vertices in one message to every other rank, needed there or not: FIAC
// customizes each rank's contents (possibly to nothing), FIAB tells every
// rank about every boundary vertex of the chunk — under the index one past
// the rank's table ("not adjacent to you") where the vertex is no ghost.
func (k *d1Kernel) shipToAll(chunk []int32) {
	d := k.d
	bufs := make([][]byte, d.P)
	index := slices.Clone(k.elsewhere) // FIAB only: per rank, where the vertex at hand is in its table
	for _, v := range chunk {
		if !d.IsBoundary[v] {
			continue
		}
		shown := d.ShownTo(v)
		if index == nil { // FIAC
			for _, at := range shown {
				bufs[at.Rank] = appendNotice(bufs[at.Rank], at.Index, k.colors[v])
			}
			continue
		}
		for _, at := range shown {
			index[at.Rank] = at.Index
		}
		for rk := range bufs {
			if rk != d.Rank {
				bufs[rk] = appendNotice(bufs[rk], index[rk], k.colors[v])
			}
		}
		for _, at := range shown {
			index[at.Rank] = k.elsewhere[at.Rank]
		}
	}
	for rk := 0; rk < d.P; rk++ {
		if rk != d.Rank {
			k.c.Send(rk, colorTag, bufs[rk])
		}
	}
}

// detect is the communication-free conflict detection: it returns the
// vertices of u that share a color with a ghost neighbor and are the
// endpoint that must re-color. The color is compared first, so the ghost
// test and the global ids are read only on an actual conflict.
func (k *d1Kernel) detect(u []int32) []int32 {
	d, color := k.d, k.color
	recolor := u[:0]
	var arcs int64
	for _, v := range u {
		if !d.IsBoundary[v] {
			continue
		}
		arcs += int64(d.Degree(v))
		cv := color[v]
		for _, w := range d.Neighbors(v) {
			if color[w] != cv || !d.IsGhost(w) {
				continue
			}
			if loses(k.opt.Conflict, k.opt.Seed, d.GlobalOf(v), d.GlobalOf(w)) {
				recolor = append(recolor, v)
				break
			}
		}
	}
	k.c.ChargeOps(arcs, 0)
	return recolor
}
