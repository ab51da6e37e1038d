package coloring

import (
	"encoding/binary"
	"fmt"
	"math"

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
// apart: Parallel the strategy / order / FIAC-FIAB shipping and ghost-edge
// detection, ParallelDistance2 the two-hop marking, middle-vertex detection
// and RECOLOR notices, JonesPlassmann its wins rule and round loop.

const (
	// colorTag is the color-notice tag, shared by every communication
	// variant (FIAB / FIAC / NEW) and every kernel — the base of the coloring
	// range of the tag-space contract (docs/PROTOCOL.md), metered as the
	// "color" family.
	colorTag = mpi.TagColorBase
	// recolorTag carries distance-2 RECOLOR notices: the addressed vertex
	// lost a distance-2 conflict against the carried color.
	recolorTag = mpi.TagColorBase + 10
	// noticeMax bounds the one record layout both tags use:
	// uvarint(pair-local vertex index) | uvarint(color), two to four bytes in
	// practice.
	noticeMax = 2 * binary.MaxVarintLen32
)

// appendNotice appends the notice (index, color) to buf. The index is the
// vertex's place in the table the sending and the receiving rank keep with
// each other (dgraph.Pair): among the sender's shown vertices for a color
// notice, among the receiver's for a RECOLOR.
func appendNotice(buf []byte, index, color int32) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(buf, uint64(uint32(index))), uint64(uint32(color)))
}

// readNotice reads the notice at the head of data and reports its length, or
// 0 if data does not begin with a whole notice.
func readNotice(data []byte) (index uint64, color int32, n int) {
	index, n1 := binary.Uvarint(data)
	if n1 <= 0 {
		return 0, 0, 0
	}
	col, n2 := binary.Uvarint(data[n1:])
	if n2 <= 0 || col > math.MaxUint32 {
		return 0, 0, 0
	}
	return index, int32(uint32(col)), n1 + n2
}

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
	maxDeg        int // global Δ, which sizes every kernel's palette
	picker        *firstFit

	out *mpi.Bundler

	// onRecolor, when set, is handed every record of a RECOLOR bundle — the
	// owned vertex addressed and the color it lost to (distance-2 only). Any
	// other foreign tag is a protocol violation.
	onRecolor func(v, color int32)

	rounds    int
	conflicts int64
	tr        *obs.Tracer
}

// newColorState checks that d is this rank's share of c's world and sets up
// everything the kernels have in common. It is collective (the Δ allreduce).
// The caller sizes picker from maxDeg.
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
	localMaxDeg := 0
	for v := 0; v < d.NLocal; v++ {
		localMaxDeg = max(localMaxDeg, d.Degree(int32(v)))
	}
	s.maxDeg = int(c.AllreduceInt64(int64(localMaxDeg), mpi.OpMax))
	s.out = mpi.NewBundler(c, colorTag, noticeMax, 0)
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

// allOwned lists the owned vertices in natural local order.
func (s *colorState) allOwned() []int32 {
	u := make([]int32, s.d.NLocal)
	for v := range u {
		u[v] = int32(v)
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

// pickFirstFit returns the smallest color no neighbor of v is known to hold.
func (s *colorState) pickFirstFit(v int32) int32 {
	s.picker.stamp++
	s.markAdjacent(v)
	return s.picker.firstFree()
}

// announce ships the colors of the chunk's boundary vertices to the ranks
// owning their neighbors — the paper's NEW scheme, one bundle per neighbor
// rank. Interior vertices are shown to nobody and never generate traffic.
func (s *colorState) announce(chunk []int32) {
	var rec [noticeMax]byte
	for _, v := range chunk {
		for _, at := range s.d.ShownTo(v) {
			s.out.Add(int(at.Rank), appendNotice(rec[:0], at.Index, s.colors[v]))
		}
	}
	s.out.Flush()
}

// drain consumes pending notices without blocking; completeness at a round
// boundary comes from the barrier that precedes the drain there. A notice's
// index is read against the pair table kept with the sender: a color notice
// names one of the sender's vertices that are ghosts here — or, one past the
// last of them, a vertex that is not (FIAB tells every rank about every
// boundary vertex); a RECOLOR names one of the vertices shown to the sender.
// Anything else is a protocol violation.
func (s *colorState) drain() {
	for {
		m, ok := s.c.TryRecv()
		if !ok {
			return
		}
		recolor := m.Tag == recolorTag && s.onRecolor != nil
		if !recolor && m.Tag != colorTag {
			panic(fmt.Sprintf("coloring: unexpected tag %d", m.Tag))
		}
		pair := s.d.PairWith(m.From)
		table := pair.Ghosts
		if recolor {
			table = pair.Shown
		}
		var notices int64
		for data := m.Data; len(data) > 0; notices++ {
			index, color, n := readNotice(data)
			elsewhere := !recolor && index == uint64(len(table))
			if n == 0 || (index >= uint64(len(table)) && !elsewhere) {
				panic(fmt.Sprintf("coloring: rank %d: notice %d of a %d-byte bundle with tag %d from rank %d is cut short or names none of the %d vertices it could",
					s.d.Rank, notices, len(m.Data), m.Tag, m.From, len(table)))
			}
			data = data[n:]
			switch {
			case elsewhere:
			case recolor:
				s.onRecolor(table[index], color)
			default:
				s.color[table[index]] = color
			}
		}
		if !recolor {
			s.c.ChargeOps(notices, 0)
		}
		s.out.Recycle(m.Data) // fully consumed; reuse for outbound bundles
	}
}

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

// speculate runs the framework's rounds over the work list u until no rank
// has a vertex left to re-color. A round colors u tentatively, step vertices
// per superstep — pick, ship the chunk, drain what has arrived — then fences
// with a barrier so that every notice of the round is in, and asks detect
// for the vertices that must re-color; they are the next round's u. A
// canceled world stops it at the next superstep with mpi.ErrCanceled.
func (s *colorState) speculate(kernel string, u []int32, step, maxRounds int,
	pick func(v int32) int32, ship func(chunk []int32), detect func(u []int32) []int32) error {
	for {
		roundTok, err := s.beginRound(kernel, maxRounds)
		if err != nil {
			return err
		}
		for lo := 0; lo < len(u); lo += step {
			if err := s.c.Err(); err != nil {
				return err
			}
			chunk := u[lo:min(lo+step, len(u))]
			stepTok := s.tr.BeginDetail("color.superstep")
			var arcs int64
			for _, v := range chunk {
				s.colors[v] = pick(v)
				arcs += int64(s.d.Degree(v))
			}
			s.c.ChargeOps(arcs, int64(len(chunk)))
			ship(chunk)
			s.drain()
			s.tr.EndN(stepTok, int64(len(chunk)))
		}
		s.c.Barrier()
		s.drain()

		detectTok := s.tr.BeginDetail("color.detect")
		u = detect(u)
		s.conflicts += int64(len(u))
		s.tr.EndN(detectTok, int64(len(u)))
		if s.endRound(roundTok, len(u)) {
			return nil
		}
	}
}
