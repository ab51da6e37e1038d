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
	// Conflict picks the conflict-resolution policy.
	Conflict ConflictPolicy
	// Seed drives r(v); all ranks must pass the same value.
	Seed uint64
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
	s, err := newColorState(c, d)
	if err != nil {
		return nil, err
	}
	// Global Δ bounds every first-fit color.
	s.picker = newFirstFit(d.GlobalMaxDegree + 1)
	k := &d1Kernel{colorState: s, opt: opt}
	if opt.CommMode == CommBroadcast {
		k.elsewhere = make([]int32, d.P)
		for rk := range k.elsewhere {
			k.elsewhere[rk] = int32(len(d.PairWith(rk).Shown))
		}
		k.index = slices.Clone(k.elsewhere)
	}

	// Round 1 colors in the configured order: the share's local order, from
	// the boundary or from the interior group on, or ascending global id.
	first, u := 0, []int32(nil)
	if opt.Order == InteriorFirst {
		first = d.NumBoundary
	} else if opt.Order != BoundaryFirst {
		first, u = -1, s.ascending()
	}
	// First fit and NEW are the core's own pick (nil) and ship; FIAC / FIAB
	// are this kernel's.
	ship := s.announce
	if opt.CommMode != CommNeighbors {
		s.peers = make([]int, 0, d.P-1)
		for rk := range d.P {
			if rk != d.Rank {
				s.peers = append(s.peers, rk)
			}
		}
		k.bufs, k.last = make([][]byte, d.P-1), make([]int32, d.P-1)
		ship = k.shipToAll
	}
	if err := s.speculate("distance-1", u, first, opt.SuperstepSize, maxRoundsD1, nil, ship, k.detect); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// d1Kernel is what distance-1 coloring adds to the core: FIAC / FIAB
// shipping and the conflict detection over ghost edges.
type d1Kernel struct {
	*colorState
	opt       ParallelOptions
	elsewhere []int32  // FIAB, per rank: the index one past its table of this rank's shown vertices
	bufs      [][]byte // FIAB / FIAC, per peer: the message being built
	last      []int32  // FIAB / FIAC, per peer: the index of its message's last notice
	index     []int32  // FIAB, per rank: the vertex at hand's index there; elsewhere between vertices
}

// shipToAll sends the freshly assigned colors of boundary vertices in one
// message to every other rank, needed there or not: FIAC customizes each
// rank's contents (possibly to nothing), FIAB tells every rank about every
// boundary vertex — under the index one past the rank's table ("not adjacent
// to you") where the vertex is no ghost — in a consumed inbound bundle that
// out spares, or else a piece of one block with room for a notice per vertex.
// At the round's fence the messages are the exchange's payloads.
func (k *d1Kernel) shipToAll(boundary []int32, fence bool) [][]byte {
	d, bufs, last, index := k.d, k.bufs, k.last, k.index
	need, block := len(boundary)*noticeMax, []byte(nil)
	for i := range bufs {
		if bufs[i] = k.out.Spare(); bufs[i] == nil {
			if len(block) < need {
				block = make([]byte, len(bufs)*need)
			}
			bufs[i], block = block[:0:need], block[need:]
		}
	}
	for _, v := range boundary {
		shown := d.ShownTo(v)
		if index == nil { // FIAC
			for _, at := range shown {
				i := int(at.Rank)
				if i > d.Rank { // bufs skips this rank
					i--
				}
				bufs[i], last[i] = noticeCodec.Append(bufs[i], last[i], at.Index, uint32(k.colors[v])), at.Index
			}
			continue
		}
		for _, at := range shown {
			index[at.Rank] = at.Index
		}
		for i, rk := range k.peers {
			bufs[i], last[i] = noticeCodec.Append(bufs[i], last[i], index[rk], uint32(k.colors[v])), index[rk]
		}
		for _, at := range shown {
			index[at.Rank] = k.elsewhere[at.Rank]
		}
	}
	if fence {
		return k.c.NeighborExchange(colorTag, k.peers, bufs)
	}
	for i, rk := range k.peers {
		k.c.Send(rk, colorTag, bufs[i])
	}
	return nil
}

// detect is the communication-free conflict detection: it returns, in u's
// storage, the boundary vertices that share a color with a ghost neighbor
// and are the endpoint that must re-color. Only v's arcs to ghosts are
// walked, and the global ids are read only on an actual conflict.
func (k *d1Kernel) detect(u, boundary []int32) []int32 {
	d, color := k.d, k.color
	if u == nil { // round 1 colored a range: the re-color lists, all boundary, get a buffer here
		u = make([]int32, 0, len(boundary))
	}
	recolor := u[:0]
	var arcs int64
	for _, v := range boundary {
		row := d.Neighbors(v)
		arcs += int64(len(row))
		cv := color[v]
		for _, at := range d.CrossArcsOf(v) {
			if w := row[at]; color[w] == cv && loses(k.opt.Conflict, k.opt.Seed, d.GlobalOf(v), d.GlobalOf(w)) {
				recolor = append(recolor, v)
				break
			}
		}
	}
	k.c.ChargeOps(arcs, 0)
	k.conflicts += int64(len(recolor))
	return recolor
}
