package coloring

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// The speculative-coloring core. Section 4 of the paper is one framework —
// color speculatively in supersteps, exchange boundary colors, detect
// conflicts without communication through a pre-assigned r(v), re-color the
// losers — and this file is that framework, written once: one rank's state
// and its set-up, the color-notice exchange, the tentative phase and round
// bookkeeping, and the two rules (first fit over the visible colors, who
// loses a conflict). The kernels on top of it own only what tells them
// apart: Parallel the order / FIAC-FIAB shipping and ghost-edge
// detection, ParallelDistance2 the two-hop marking, middle-vertex detection
// and RECOLOR exchange, JonesPlassmann its wins rule (its rounds are the
// core's, one superstep each).

const (
	// colorTag is the color-notice tag, shared by every communication
	// variant (FIAB / FIAC / NEW) and every kernel — the base of the coloring
	// range of the tag-space contract (docs/PROTOCOL.md), metered as the
	// "color" family.
	colorTag = mpi.TagColorBase
	// recolorTag is distance-2's RECOLOR exchange: the addressed vertex
	// lost a distance-2 conflict against the carried color.
	recolorTag = mpi.TagColorBase + 10
	// noticeMax bounds a notice: uvarint(z) | uvarint(color), two to four
	// bytes in practice.
	noticeMax = 2 * binary.MaxVarintLen32
)

// noticeCodec is the one layout of both tags' notices: (index, color), where
// index is the vertex's place in the table the sending and the receiving rank
// keep with each other (dgraph.Pair) — among the sender's shown vertices for
// a color notice, among the receiver's for a RECOLOR — coded as the index or
// its difference from the previous notice's in the message.
var noticeCodec = mpi.Codec{}

// rnd deterministically maps a global vertex id to its random priority r(v);
// every rank computes identical values without communication, which is the
// point of the paper's "random function defined over boundary vertices at
// the beginning of the algorithm".
func rnd(seed uint64, gid int64) uint64 {
	z := seed ^ (uint64(gid)+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// loses is the conflict rule: of two vertices with global ids ga and gb that
// may not both keep their color, does a give way? Every rank that sees the
// pair answers alike, so no messages are needed to agree. Under
// ConflictRandom — also Jones–Plassmann's wins — the smaller r gives way,
// ids break ties.
func loses(policy ConflictPolicy, seed uint64, ga, gb int64) bool {
	if policy == ConflictMinID {
		return ga < gb
	}
	ra, rb := rnd(seed, ga), rnd(seed, gb)
	return ra < rb || (ra == rb && ga < gb)
}

// colorState is one rank's state in a distributed coloring run.
type colorState struct {
	c *mpi.Comm
	d *dgraph.DistGraph

	// color is the one color array over every local index, owned vertices
	// first, then ghosts (-1: not yet known); colors is its owned prefix.
	color, colors []int32
	picker        *firstFit

	out *mpi.Bundler
	// peers are the ranks a round's fence exchanges with: the neighbor
	// ranks, or under FIAC / FIAB every other rank.
	peers []int

	rounds    int
	conflicts int64
	tr        *obs.Tracer
}

// newColorState checks that d is this rank's share of c's world and sets up
// everything the kernels have in common. The caller sizes picker from the
// share's global Δ.
func newColorState(c *mpi.Comm, d *dgraph.DistGraph) (*colorState, error) {
	if c.Size() != d.P {
		return nil, fmt.Errorf("coloring: world size %d, graph distributed over %d", c.Size(), d.P)
	}
	if c.Rank() != d.Rank {
		return nil, fmt.Errorf("coloring: rank %d given share of rank %d", c.Rank(), d.Rank)
	}
	s := &colorState{c: c, d: d, color: make([]int32, d.NLocal+d.NGhost), tr: c.Tracer()}
	for i := range s.color {
		s.color[i] = -1
	}
	s.colors = s.color[:d.NLocal:d.NLocal]
	s.out = mpi.NewBundler(c, colorTag, noticeMax, 0)
	s.peers = d.NeighborRanks
	return s, nil
}

// result is the common epilogue: the global color count (collective).
func (s *colorState) result() *ParallelResult {
	localMax := int32(-1)
	for _, col := range s.colors {
		localMax = max(localMax, col)
	}
	globalMax := s.c.AllreduceInt64(int64(localMax), mpi.OpMax)
	return &ParallelResult{Colors: s.colors, Rounds: s.rounds, Conflicts: s.conflicts, NumColors: int(globalMax + 1)}
}

// ascending lists the owned vertices in ascending global id — the share's
// boundary and interior groups merged — the order in which the kernels that
// do not tell the two apart color.
func (s *colorState) ascending() []int32 {
	d, u := s.d, make([]int32, s.d.NLocal)
	b, i := 0, d.NumBoundary
	for k := range u {
		if i == d.NLocal || (b < d.NumBoundary && d.GlobalID[b] < d.GlobalID[i]) {
			u[k], b = int32(b), b+1
		} else {
			u[k], i = int32(i), i+1
		}
	}
	return u
}

// markAdjacent marks the colors visible on v's neighbors, owned and ghost,
// under the picker's current stamp.
func (s *colorState) markAdjacent(v int32) {
	f, color := s.picker, s.color
	for _, u := range s.d.Neighbors(v) {
		f.use(color[u])
	}
}

// announce ships the colors of boundary vertices to the ranks owning their
// neighbors — the paper's NEW scheme, one bundle per neighbor rank. Interior
// vertices are shown to nobody and never generate traffic. At the round's
// fence the bundles are the exchange's payloads, and what the peers sent is
// returned.
func (s *colorState) announce(boundary []int32, fence bool) [][]byte {
	for _, v := range boundary {
		for _, at := range s.d.ShownTo(v) {
			s.out.AddIndexed(int(at.Rank), noticeCodec, at.Index, uint32(s.colors[v]))
		}
	}
	if fence {
		return s.out.Exchange(s.peers)
	}
	s.out.Flush()
	return nil
}

// drain consumes the notices that have arrived, without blocking, then the
// fence payloads in, one per peer (none between supersteps). After a fence
// every notice of the round is in: a peer sends its fence payload after all
// its other bundles.
func (s *colorState) drain(in [][]byte) {
	for {
		m, ok := s.c.TryRecv()
		if !ok {
			break
		}
		if m.Tag != colorTag {
			panic(fmt.Sprintf("coloring: unexpected tag %d", m.Tag))
		}
		s.takeColors(m.From, m.Data)
	}
	for i, data := range in {
		s.takeColors(s.peers[i], data)
	}
}

// takeColors applies one bundle of color notices from rank from. A notice's
// index is an offset into the sender's run of ghosts here — or, one past the
// last of them, names a vertex that is no ghost here (FIAB tells every rank
// about every boundary vertex). Anything else is a protocol violation.
func (s *colorState) takeColors(from int, data []byte) {
	lo, hi := s.d.GhostsOf(from)
	count := hi - lo
	w := noticeCodec.Walk(from, colorTag, data, int(count)+1)
	for w.Next() {
		if w.Index < count {
			s.color[lo+w.Index] = int32(w.X)
		}
	}
	s.c.ChargeOps(w.Records(), 0)
	s.out.Recycle(data) // fully consumed; reuse for outbound bundles
}

// The round limits abort a run that fails to converge, a safety net: the
// speculative kernels converge in a handful of rounds, Jones–Plassmann in
// about one per layer of the priority order. maxRoundsD2 also sizes
// distance-2's palette headroom.
const (
	maxRoundsD1 = 64
	maxRoundsD2 = 128
	maxRoundsJP = 10000
)

// beginRound opens the next round, refusing to go past maxRounds.
func (s *colorState) beginRound(kernel string, maxRounds int) (uint64, error) {
	if s.rounds == maxRounds {
		return 0, fmt.Errorf("coloring: %s did not converge in %d rounds", kernel, maxRounds)
	}
	s.rounds++
	return s.tr.Begin("color.round"), nil
}

// endRound closes the round and reports whether every rank is out of work
// (collective).
func (s *colorState) endRound(tok uint64, remaining int) bool {
	done := s.c.AllreduceInt64(int64(remaining), mpi.OpSum) == 0
	s.tr.EndN(tok, int64(s.rounds))
	return done
}

// speculate runs the framework's rounds until no rank has a vertex left to
// re-color. Round 1 colors u or, when first ≥ 0, every owned vertex in local
// order from first on, wrapping round to 0 — the boundary group first from
// 0, the interior one from NumBoundary — with no list. A round colors its
// work tentatively, step vertices per superstep — pick, ship the chunk's
// boundary vertices, drain what has arrived. The last superstep (the only
// one, empty, when the rank has no work) ships its chunk as the round's fence
// exchange with the peers, after which every notice of the round is in; then
// detect names the vertices that must re-color, the next round's u. A nil
// pick is first fit, called directly; a pick may also return -1, leaving v
// uncolored and unshipped. detect gets u, whose storage it may reuse (nil
// after a round 1 without a list), and the round's boundary vertices in color
// order, kept apart. A canceled world stops it at the next superstep with
// mpi.ErrCanceled.
func (s *colorState) speculate(kernel string, u []int32, first, step, maxRounds int,
	pick func(v int32) int32, ship func(boundary []int32, fence bool) [][]byte, detect func(u, boundary []int32) []int32) error {
	nLocal, nb := s.d.NLocal, int32(s.d.NumBoundary)
	boundary := make([]int32, 0, nb)
	for {
		roundTok, err := s.beginRound(kernel, maxRounds)
		if err != nil {
			return err
		}
		boundary = boundary[:0]
		n := len(u)
		if first >= 0 {
			n = nLocal
		}
		for lo, fence := 0, false; !fence; lo += step {
			if err := s.c.Err(); err != nil {
				return err
			}
			hi, from := min(lo+step, n), len(boundary)
			fence = hi == n
			stepTok := s.tr.BeginDetail("color.superstep")
			var arcs int64
			for i := lo; i < hi; i++ {
				v := int32(i + first) // the i-th vertex of the round
				if first < 0 {
					v = u[i]
				} else if int(v) >= nLocal {
					v -= int32(nLocal)
				}
				if pick == nil { // first fit over the colors v's neighbors are known to hold
					adj := s.d.Neighbors(v)
					s.colors[v], arcs = s.picker.pick(s.color, adj), arcs+int64(len(adj))
				} else {
					s.colors[v], arcs = pick(v), arcs+int64(s.d.Degree(v))
				}
				if v < nb && s.colors[v] >= 0 {
					boundary = append(boundary, v)
				}
			}
			s.c.ChargeOps(arcs, int64(hi-lo))
			s.drain(ship(boundary[from:], fence))
			s.tr.EndN(stepTok, int64(hi-lo))
		}

		detectTok := s.tr.BeginDetail("color.detect")
		u, first = detect(u, boundary), -1
		s.tr.EndN(detectTok, int64(len(u)))
		if s.endRound(roundTok, len(u)) {
			return nil
		}
	}
}
