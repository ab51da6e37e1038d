package coloring

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/obs"
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
	// Threads > 1 enables the hybrid distributed/shared-memory mode of the
	// paper's Section 6 outlook: each rank colors its interior vertices with
	// this many worker goroutines before the boundary enters the distributed
	// rounds (forcing interior-strictly-before-boundary order).
	Threads int
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

const (
	// colorTag is the color-notice tag, shared by every communication
	// variant (FIAB / FIAC / NEW) — the base of the coloring range of the
	// tag-space contract (docs/PROTOCOL.md), metered as the "color" family.
	colorTag     = mpi.TagColorBase
	colorRecSize = 12 // global id (8) + color (4)
)

func encodeColorRec(buf []byte, gid int64, color int32) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(gid))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(color))
}

func decodeColorRec(rec []byte) (int64, int32) {
	return int64(binary.LittleEndian.Uint64(rec[0:8])), int32(binary.LittleEndian.Uint32(rec[8:12]))
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

// Parallel runs the speculative iterative distance-1 coloring (Algorithm
// 4.1) on this rank's share d. Every rank of the world must call Parallel
// with its own share and identical options.
func Parallel(c *mpi.Comm, d *dgraph.DistGraph, opt ParallelOptions) (*ParallelResult, error) {
	if c.Size() != d.P {
		return nil, fmt.Errorf("coloring: world size %d, graph distributed over %d", c.Size(), d.P)
	}
	if c.Rank() != d.Rank {
		return nil, fmt.Errorf("coloring: rank %d given share of rank %d", c.Rank(), d.Rank)
	}
	if opt.SuperstepSize == 0 {
		opt.SuperstepSize = 1000
	}
	if opt.SuperstepSize < 1 {
		return nil, fmt.Errorf("coloring: non-positive superstep size %d", opt.SuperstepSize)
	}
	if opt.MaxRounds == 0 {
		opt.MaxRounds = 64
	}

	s := &colorState{c: c, d: d, opt: opt}
	if err := s.run(); err != nil {
		return nil, err
	}
	// Global color count.
	localMax := int32(-1)
	for _, col := range s.colors {
		if col > localMax {
			localMax = col
		}
	}
	globalMax := c.AllreduceInt64(int64(localMax), mpi.OpMax)
	return &ParallelResult{
		Colors:    s.colors,
		Rounds:    s.rounds,
		Conflicts: s.conflicts,
		NumColors: int(globalMax + 1),
	}, nil
}

type colorState struct {
	c   *mpi.Comm
	d   *dgraph.DistGraph
	opt ParallelOptions

	colors     []int32 // owned, -1 until colored
	ghostColor []int32 // latest known ghost colors, -1 unknown
	picker     *firstFit
	usage      []int64 // per-color local usage, for LeastUsed
	maxColors  int     // mark-array capacity (global Δ + 1)
	staggerAt  int32   // starting color for StaggeredFirstFit

	// vertexRanks is a CSR of the distinct neighbor ranks of each owned
	// boundary vertex, the destination sets of the NEW communication mode.
	vertexRankOff  []int32
	vertexRankList []int32

	out       *mpi.Bundler
	rounds    int
	conflicts int64
	tr        *obs.Tracer
}

func (s *colorState) run() error {
	d := s.d
	n := d.NLocal
	s.colors = make([]int32, n)
	for i := range s.colors {
		s.colors[i] = -1
	}
	s.ghostColor = make([]int32, d.NGhost)
	for i := range s.ghostColor {
		s.ghostColor[i] = -1
	}
	// Global Δ bounds every first-fit color.
	localMaxDeg := 0
	for v := 0; v < n; v++ {
		if deg := d.Degree(int32(v)); deg > localMaxDeg {
			localMaxDeg = deg
		}
	}
	globalMaxDeg := int(s.c.AllreduceInt64(int64(localMaxDeg), mpi.OpMax))
	s.maxColors = globalMaxDeg + 1
	s.picker = newFirstFit(s.maxColors)
	s.usage = make([]int64, s.maxColors+1)
	if s.d.P > 0 {
		s.staggerAt = int32(s.d.Rank * s.maxColors / s.d.P)
	}
	s.buildVertexRanks()
	s.out = mpi.NewBundler(s.c, colorTag, colorRecSize, 0)
	s.tr = s.c.Tracer()

	// U starts as all owned vertices in the configured order — or, in the
	// hybrid mode, as the boundary only, the interior having been colored by
	// the rank's worker threads.
	var u []int32
	if s.opt.Threads > 1 {
		s.colorInteriorThreaded(s.opt.Threads)
		for v := 0; v < n; v++ {
			if d.IsBoundary[v] {
				u = append(u, int32(v))
			}
		}
	} else {
		u = s.initialOrder()
	}
	for {
		s.rounds++
		if s.rounds > s.opt.MaxRounds {
			return fmt.Errorf("coloring: no convergence after %d rounds", s.opt.MaxRounds)
		}
		roundTok := s.tr.Begin("color.round")
		// Tentative coloring in supersteps.
		for lo := 0; lo < len(u); lo += s.opt.SuperstepSize {
			hi := lo + s.opt.SuperstepSize
			if hi > len(u) {
				hi = len(u)
			}
			chunk := u[lo:hi]
			stepTok := s.tr.BeginDetail("color.superstep")
			var chunkArcs int64
			for _, v := range chunk {
				s.colors[v] = s.pickColor(v)
				chunkArcs += int64(s.d.Degree(v))
			}
			s.c.ChargeOps(chunkArcs, int64(len(chunk)))
			s.shipChunk(chunk)
			s.drain()
			s.tr.EndN(stepTok, int64(len(chunk)))
		}
		// Round boundary: all traffic sent before the barrier is in our
		// mailbox after it; drain to gather complete neighbor information.
		s.c.Barrier()
		s.drain()

		// Communication-free conflict detection.
		detectTok := s.tr.BeginDetail("color.detect")
		recolor := u[:0]
		var detectArcs int64
		for _, v := range u {
			if s.d.IsBoundary[v] {
				detectArcs += int64(s.d.Degree(v))
			}
			if s.loses(v) {
				recolor = append(recolor, v)
			}
		}
		s.c.ChargeOps(detectArcs, 0)
		u = recolor
		s.conflicts += int64(len(u))
		s.tr.EndN(detectTok, int64(len(u)))
		done := s.c.AllreduceInt64(int64(len(u)), mpi.OpSum) == 0
		s.tr.EndN(roundTok, int64(s.rounds))
		if done {
			return nil
		}
	}
}

// initialOrder lists the owned vertices in the configured interior/boundary
// order.
func (s *colorState) initialOrder() []int32 {
	n := s.d.NLocal
	u := make([]int32, 0, n)
	switch s.opt.Order {
	case Interleaved:
		for v := 0; v < n; v++ {
			u = append(u, int32(v))
		}
	case BoundaryFirst:
		for v := 0; v < n; v++ {
			if s.d.IsBoundary[v] {
				u = append(u, int32(v))
			}
		}
		for v := 0; v < n; v++ {
			if !s.d.IsBoundary[v] {
				u = append(u, int32(v))
			}
		}
	case InteriorFirst:
		for v := 0; v < n; v++ {
			if !s.d.IsBoundary[v] {
				u = append(u, int32(v))
			}
		}
		for v := 0; v < n; v++ {
			if s.d.IsBoundary[v] {
				u = append(u, int32(v))
			}
		}
	}
	return u
}

// buildVertexRanks precomputes, for each owned boundary vertex, the sorted
// distinct ranks owning at least one of its neighbors.
func (s *colorState) buildVertexRanks() {
	d := s.d
	s.vertexRankOff = make([]int32, d.NLocal+1)
	var list []int32
	var scratch []int32
	for v := 0; v < d.NLocal; v++ {
		scratch = scratch[:0]
		for _, u := range d.Neighbors(int32(v)) {
			if d.IsGhost(u) {
				scratch = append(scratch, int32(d.OwnerOf(u)))
			}
		}
		if len(scratch) > 1 {
			sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
			w := 1
			for i := 1; i < len(scratch); i++ {
				if scratch[i] != scratch[w-1] {
					scratch[w] = scratch[i]
					w++
				}
			}
			scratch = scratch[:w]
		}
		list = append(list, scratch...)
		s.vertexRankOff[v+1] = int32(len(list))
	}
	s.vertexRankList = list
}

// pickColor selects a permissible color for owned vertex v given current
// knowledge of neighbor colors.
func (s *colorState) pickColor(v int32) int32 {
	d := s.d
	f := s.picker
	f.stamp++
	for _, u := range d.Neighbors(v) {
		var c int32
		if d.IsGhost(u) {
			c = s.ghostColor[int(u)-d.NLocal]
		} else {
			c = s.colors[u]
		}
		if c >= 0 && int(c) < len(f.mark) {
			f.mark[c] = f.stamp
		}
	}
	switch s.opt.Strategy {
	case StaggeredFirstFit:
		// Scan from the per-rank base, wrapping once over [0, maxColors).
		for i := 0; i < s.maxColors; i++ {
			c := (int(s.staggerAt) + i) % s.maxColors
			if f.mark[c] != f.stamp {
				return int32(c)
			}
		}
	case LeastUsed:
		// Among permissible colors not exceeding the locally used palette,
		// prefer the least used; fall back to first fit.
		best, bestUse := int32(-1), int64(1)<<62
		limit := s.paletteSize()
		for c := 0; c < limit; c++ {
			if f.mark[c] != f.stamp && s.usage[c] < bestUse {
				best, bestUse = int32(c), s.usage[c]
			}
		}
		if best >= 0 {
			s.usage[best]++
			return best
		}
		for c := range f.mark {
			if f.mark[c] != f.stamp {
				s.usage[c]++
				return int32(c)
			}
		}
	default: // FirstFit
		for c := range f.mark {
			if f.mark[c] != f.stamp {
				return int32(c)
			}
		}
	}
	panic("coloring: no permissible color (mark array too small?)")
}

// paletteSize reports how many colors this rank has used so far, plus one
// (capped at the usage array so LeastUsed never scans out of range).
func (s *colorState) paletteSize() int {
	for c := len(s.usage) - 1; c >= 0; c-- {
		if s.usage[c] > 0 {
			if c+2 > len(s.usage) {
				return len(s.usage)
			}
			return c + 2
		}
	}
	return 1
}

// shipChunk sends the freshly assigned colors of the chunk's boundary
// vertices according to the communication mode. Interior vertices never
// generate traffic.
func (s *colorState) shipChunk(chunk []int32) {
	d := s.d
	switch s.opt.CommMode {
	case CommNeighbors:
		var rec [colorRecSize]byte
		for _, v := range chunk {
			if !d.IsBoundary[v] {
				continue
			}
			encodeColorRec(rec[:], d.GlobalOf(v), s.colors[v])
			for _, rk := range s.vertexRankList[s.vertexRankOff[v]:s.vertexRankOff[v+1]] {
				s.out.Add(int(rk), rec[:])
			}
		}
		s.out.Flush()
	case CommCustomizedAll:
		// Customized contents, but one (possibly empty) message per rank.
		bufs := make([][]byte, d.P)
		var rec [colorRecSize]byte
		for _, v := range chunk {
			if !d.IsBoundary[v] {
				continue
			}
			encodeColorRec(rec[:], d.GlobalOf(v), s.colors[v])
			for _, rk := range s.vertexRankList[s.vertexRankOff[v]:s.vertexRankOff[v+1]] {
				bufs[rk] = append(bufs[rk], rec[:]...)
			}
		}
		for rk := 0; rk < d.P; rk++ {
			if rk == d.Rank {
				continue
			}
			s.c.Send(rk, colorTag, bufs[rk])
		}
	case CommBroadcast:
		// One identical bundle of every boundary color to every rank.
		var all []byte
		var rec [colorRecSize]byte
		for _, v := range chunk {
			if !d.IsBoundary[v] {
				continue
			}
			encodeColorRec(rec[:], d.GlobalOf(v), s.colors[v])
			all = append(all, rec[:]...)
		}
		for rk := 0; rk < d.P; rk++ {
			if rk == d.Rank {
				continue
			}
			// Each recipient gets its own copy (receivers own message data).
			cp := make([]byte, len(all))
			copy(cp, all)
			s.c.Send(rk, colorTag, cp)
		}
	}
}

// drain consumes pending color updates without blocking; completeness at
// round boundaries comes from the barrier that precedes the final drain.
// Records about vertices that are not ghosts here (broadcast mode) are
// ignored.
func (s *colorState) drain() {
	for {
		m, ok := s.c.TryRecv()
		if !ok {
			return
		}
		if m.Tag != colorTag {
			panic(fmt.Sprintf("coloring: unexpected tag %d", m.Tag))
		}
		s.c.ChargeOps(int64(len(m.Data)/colorRecSize), 0)
		for _, rec := range mpi.Records(m.Data, colorRecSize) {
			gid, col := decodeColorRec(rec)
			if l, ok := s.d.LocalOf(gid); ok && s.d.IsGhost(l) {
				s.ghostColor[int(l)-s.d.NLocal] = col
			}
		}
		s.out.Recycle(m.Data) // fully consumed; reuse for outbound bundles
	}
}

// loses reports whether boundary vertex v is in conflict with a ghost
// neighbor of equal color and is the endpoint that must re-color.
func (s *colorState) loses(v int32) bool {
	d := s.d
	if !d.IsBoundary[v] {
		return false
	}
	cv := s.colors[v]
	gv := d.GlobalOf(v)
	for _, u := range d.Neighbors(v) {
		if !d.IsGhost(u) {
			continue
		}
		if s.ghostColor[int(u)-d.NLocal] != cv {
			continue
		}
		gu := d.GlobalOf(u)
		if s.opt.Conflict == ConflictMinID {
			if gv < gu {
				return true
			}
			continue
		}
		rv, ru := rnd(s.opt.Seed, gv), rnd(s.opt.Seed, gu)
		if rv < ru || (rv == ru && gv < gu) {
			return true
		}
	}
	return false
}
