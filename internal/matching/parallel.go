package matching

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Message kinds of the distributed protocol (Section 3.2):
//
//	REQUEST   — signals a matching preference across a cross edge,
//	SUCCEEDED — the sender vertex has been matched and is no longer available,
//	FAILED    — the sender vertex can never be matched.
//
// At least two and at most three messages cross any cross edge.
const (
	msgRequest = iota
	msgSucceeded
	msgFailed
)

// matchTag is the runtime message tag of matching bundles — the base of the
// matching range of the tag-space contract (docs/PROTOCOL.md), so the
// runtime attributes this traffic to the "match" tag family.
const matchTag = mpi.TagMatchBase

// RecordBytes is the wire size of one protocol record:
// kind (1 byte) + source global id (8) + destination global id (8).
// As a MaxBundleBytes value it means one record per message, i.e. the
// paper's bundling switched off — the only spelling of that setting.
const RecordBytes = 17

func encodeRecord(buf []byte, kind byte, src, dst int64) {
	buf[0] = kind
	binary.LittleEndian.PutUint64(buf[1:9], uint64(src))
	binary.LittleEndian.PutUint64(buf[9:17], uint64(dst))
}

func decodeRecord(rec []byte) (kind byte, src, dst int64) {
	return rec[0], int64(binary.LittleEndian.Uint64(rec[1:9])), int64(binary.LittleEndian.Uint64(rec[9:17]))
}

// ParallelOptions tunes the distributed matching run.
type ParallelOptions struct {
	// MaxBundleBytes caps the per-destination aggregation buffer; 0 selects
	// the 64 KiB default. Setting it to one record (RecordBytes) disables
	// the paper's message bundling, the configuration the ablation bench
	// uses as its baseline.
	MaxBundleBytes int
}

// ParallelResult is one rank's share of the distributed matching.
type ParallelResult struct {
	// MateGlobal[v] is the global id of the mate of owned vertex v (local
	// index), or -1 for an unmatched vertex.
	MateGlobal []int64
	// LocalWeight sums matched edge weights with the convention that a cross
	// edge counts on the rank owning its smaller-global-id endpoint, so that
	// summing LocalWeight over ranks counts every matched edge exactly once.
	LocalWeight float64
	// OuterIterations counts how many times the rank re-entered its
	// outer (communication) loop — the paper's outer-loop round count.
	OuterIterations int64
	// Bundles and Records report the rank's aggregated message statistics.
	Bundles int64
	Records int64
}

// vertex protocol states.
const (
	stFree int8 = iota
	stMatched
	stFailed
)

// Parallel runs the distributed locally-dominant matching on this rank's
// share d, communicating over c. Every rank of the world must call Parallel
// with its own share of the same graph. The computation interleaves an inner
// loop that drains a queue of locally decided vertices (interior work, no
// messages) with an outer loop that exchanges bundled REQUEST / SUCCEEDED /
// FAILED messages for the boundary (Section 3.3); it terminates when every
// owned vertex is decided.
func Parallel(c *mpi.Comm, d *dgraph.DistGraph, opt ParallelOptions) (*ParallelResult, error) {
	if c.Size() != d.P {
		return nil, fmt.Errorf("matching: world size %d, graph distributed over %d", c.Size(), d.P)
	}
	if c.Rank() != d.Rank {
		return nil, fmt.Errorf("matching: rank %d given share of rank %d", c.Rank(), d.Rank)
	}
	s := &matchState{
		c:   c,
		d:   d,
		opt: opt,
	}
	s.run()
	res := &ParallelResult{
		MateGlobal:      make([]int64, d.NLocal),
		OuterIterations: s.outerIters,
		Bundles:         s.out.Flushes,
		Records:         s.out.Records,
	}
	for v := 0; v < d.NLocal; v++ {
		if s.state[v] == stMatched {
			gid := d.GlobalOf(s.mate[v])
			res.MateGlobal[v] = gid
			// Count each matched edge exactly once globally: on the side
			// (and, for cross edges, the rank) owning the smaller global id.
			if d.GlobalOf(int32(v)) < gid {
				res.LocalWeight += s.mateWeight[v]
			}
		} else {
			res.MateGlobal[v] = -1
		}
	}
	return res, nil
}

// matchState carries the per-rank protocol state.
type matchState struct {
	c   *mpi.Comm
	d   *dgraph.DistGraph
	opt ParallelOptions

	state      []int8    // per owned vertex
	mate       []int32   // local index of mate, for matched owned vertices
	mateWeight []float64 // weight of the matched edge
	cm         []int32   // candidate mate (local index), or -1
	ghostGone  []bool    // per ghost: matched or failed remotely
	reqTo      []int32   // per ghost: owned vertex it currently requests (the sets R), or noCM
	undecided  int       // owned vertices still free
	queue      []int32   // owned vertices that just became unavailable
	out        *mpi.Bundler
	outerIters int64
	tr         *obs.Tracer
}

const noCM int32 = -1

func (s *matchState) run() {
	d := s.d
	n := d.NLocal
	s.state = make([]int8, n)
	s.mate = make([]int32, n)
	s.mateWeight = make([]float64, n)
	s.cm = make([]int32, n)
	s.ghostGone = make([]bool, d.NGhost)
	s.reqTo = make([]int32, d.NGhost)
	for i := range s.reqTo {
		s.reqTo[i] = noCM
	}
	s.undecided = n
	s.out = mpi.NewBundler(s.c, matchTag, RecordBytes, s.opt.MaxBundleBytes)
	s.tr = s.c.Tracer()

	// Initialization: compute every candidate mate; request across cross
	// edges; match mutual local pairs. Virtual-time accounting: one edge op
	// per arc scanned, one vertex op per vertex initialized.
	initTok := s.tr.Begin("match.init")
	s.c.ChargeOps(d.Xadj[n], int64(n))
	for v := int32(0); int(v) < n; v++ {
		s.cm[v] = s.computeCandidate(v)
	}
	for v := int32(0); int(v) < n; v++ {
		if s.state[v] != stFree {
			continue
		}
		u := s.cm[v]
		switch {
		case u == noCM:
			s.fail(v)
		case d.IsGhost(u):
			s.sendRecord(msgRequest, v, u)
		case s.cm[u] == v && s.state[u] == stFree && u > v:
			s.matchLocal(v, u)
		}
	}
	s.drainQueue()
	s.tr.EndN(initTok, int64(n))

	// Outer loop: flush bundles, block for traffic, process, repeat, until
	// every owned vertex is decided. Ranks whose vertices are all decided
	// have already informed every neighbor (SUCCEEDED/FAILED were sent at
	// decision time), so exiting early starves nobody.
	for s.undecided > 0 {
		s.outerIters++
		outerTok := s.tr.Begin("match.outer")
		s.out.Flush()
		m := s.c.Recv()
		s.handleBundle(m)
		for {
			mm, ok := s.c.TryRecv()
			if !ok {
				break
			}
			s.handleBundle(mm)
		}
		s.drainQueue()
		s.tr.EndN(outerTok, s.outerIters)
	}
	finTok := s.tr.Begin("match.finalize")
	s.out.Flush()
	// Termination is local (the paper's outer loop stops when this rank's
	// cross edges are resolved), so slower peers' stale SUCCEEDED/FAILED
	// messages may still be addressed to us. Align on a barrier — by which
	// point every rank has sent everything — and clear them, so that a
	// subsequent phase on the same world starts clean. The algorithm itself
	// is complete before this fence.
	s.c.Barrier()
	s.c.DrainTag(matchTag)
	s.tr.End(finTok)
}

// computeCandidate returns the most preferred available neighbor of owned
// vertex v under (weight desc, global id asc), or noCM.
func (s *matchState) computeCandidate(v int32) int32 {
	d := s.d
	adj := d.Neighbors(v)
	wts := d.Weights(v)
	best := noCM
	bestW := 0.0
	var bestGID int64
	for k, u := range adj {
		if !s.available(u) {
			continue
		}
		w := 1.0
		if wts != nil {
			w = wts[k]
		}
		gid := d.GlobalOf(u)
		if best == noCM || w > bestW || (w == bestW && gid < bestGID) {
			best, bestW, bestGID = u, w, gid
		}
	}
	return best
}

// available reports whether neighbor u (owned or ghost, by local index) can
// still be matched from this rank's perspective.
func (s *matchState) available(u int32) bool {
	if s.d.IsGhost(u) {
		return !s.ghostGone[int(u)-s.d.NLocal]
	}
	return s.state[u] == stFree
}

// edgeWeight returns the weight of the arc from owned v to neighbor u.
func (s *matchState) edgeWeight(v, u int32) float64 {
	d := s.d
	for i := d.Xadj[v]; i < d.Xadj[v+1]; i++ {
		if d.Adj[i] == u {
			return d.Weight(i)
		}
	}
	panic("matching: edgeWeight on non-neighbor")
}

// sendRecord ships a protocol record about owned vertex v to the owner of
// ghost u.
func (s *matchState) sendRecord(kind byte, v, u int32) {
	var rec [RecordBytes]byte
	encodeRecord(rec[:], kind, s.d.GlobalOf(v), s.d.GlobalOf(u))
	s.out.Add(s.d.OwnerOf(u), rec[:])
}

// matchLocal matches two owned vertices and queues the fallout.
func (s *matchState) matchLocal(v, u int32) {
	w := s.edgeWeight(v, u)
	s.setMatched(v, u, w)
	s.setMatched(u, v, w)
	s.announce(v, u)
	s.announce(u, v)
}

// matchCross matches owned vertex v to ghost u.
func (s *matchState) matchCross(v, u int32) {
	s.setMatched(v, u, s.edgeWeight(v, u))
	s.announce(v, u)
}

func (s *matchState) setMatched(v, u int32, w float64) {
	s.state[v] = stMatched
	s.mate[v] = u
	s.mateWeight[v] = w
	s.undecided--
	s.queue = append(s.queue, v)
}

// announce tells every neighbor of v except its mate that v is taken:
// SUCCEEDED messages across cross edges; owned neighbors learn during the
// queue drain. Pending requests R(v) are implicitly cleared because v is no
// longer free.
func (s *matchState) announce(v, mate int32) {
	for _, nb := range s.d.Neighbors(v) {
		if nb == mate || !s.d.IsGhost(nb) {
			continue
		}
		if !s.ghostGone[int(nb)-s.d.NLocal] {
			s.sendRecord(msgSucceeded, v, nb)
		}
	}
}

// fail marks owned vertex v as permanently unmatchable and informs all
// remaining neighbors.
func (s *matchState) fail(v int32) {
	s.state[v] = stFailed
	s.undecided--
	s.queue = append(s.queue, v)
	for _, nb := range s.d.Neighbors(v) {
		if s.d.IsGhost(nb) && !s.ghostGone[int(nb)-s.d.NLocal] {
			s.sendRecord(msgFailed, v, nb)
		}
	}
}

// drainQueue is the inner loop: every queued vertex just became unavailable,
// so each free owned neighbor pointing at it recomputes its candidate and may
// match, request, or fail — cascading without any communication (messages to
// ghosts are only *buffered* here; the outer loop ships them).
func (s *matchState) drainQueue() {
	if len(s.queue) == 0 {
		return
	}
	tok := s.tr.BeginDetail("match.inner")
	var drained int64
	for len(s.queue) > 0 {
		drained++
		v := s.queue[0]
		s.queue = s.queue[1:]
		for _, w := range s.d.Neighbors(v) {
			if s.d.IsGhost(w) || s.state[w] != stFree || s.cm[w] != v {
				continue
			}
			s.recompute(w)
		}
	}
	s.tr.EndN(tok, drained)
}

// recompute refreshes the candidate mate of free owned vertex w after its
// previous candidate became unavailable, taking whatever action the new
// candidate allows (Algorithm 3.3's PROCESSSUCCEEDEDMESSAGE body).
func (s *matchState) recompute(w int32) {
	s.c.ChargeOps(int64(s.d.Degree(w)), 1)
	nc := s.computeCandidate(w)
	s.cm[w] = nc
	switch {
	case nc == noCM:
		s.fail(w)
	case s.d.IsGhost(nc):
		s.sendRecord(msgRequest, w, nc)
		if s.reqTo[int(nc)-s.d.NLocal] == w {
			// The ghost already asked for w: handshake complete
			// (Algorithm 3.3's "if candidateMate(v) is in R(v)" branch).
			s.matchCross(w, nc)
		}
	case s.cm[nc] == w && s.state[nc] == stFree:
		s.matchLocal(w, nc)
	}
}

// handleBundle processes one received bundle of protocol records.
func (s *matchState) handleBundle(m mpi.Message) {
	if m.Tag != matchTag {
		panic(fmt.Sprintf("matching: unexpected tag %d", m.Tag))
	}
	defer s.out.Recycle(m.Data) // records alias m.Data; consumed by loop end
	s.c.ChargeOps(int64(len(m.Data)/RecordBytes), 0)
	for _, rec := range mpi.Records(m.Data, RecordBytes) {
		kind, srcG, dstG := decodeRecord(rec)
		v, ok := s.d.LocalOf(dstG)
		if !ok || s.d.IsGhost(v) {
			panic(fmt.Sprintf("matching: record for vertex %d not owned by rank %d", dstG, s.d.Rank))
		}
		u, ok := s.d.LocalOf(srcG)
		if !ok || !s.d.IsGhost(u) {
			panic(fmt.Sprintf("matching: record from vertex %d that is not a ghost on rank %d", srcG, s.d.Rank))
		}
		gi := int(u) - s.d.NLocal
		switch kind {
		case msgRequest:
			// Algorithm 3.2. A request from an already-gone ghost cannot
			// happen under per-pair FIFO (its SUCCEEDED/FAILED would follow,
			// not precede, its REQUEST).
			if s.state[v] != stFree {
				continue // v already matched or failed; u was informed then
			}
			if s.cm[v] == u {
				s.matchCross(v, u)
			} else {
				// Remember the request; a later REQUEST from the same ghost
				// (after it recomputed) supersedes this one.
				s.reqTo[gi] = v
			}
		case msgSucceeded, msgFailed:
			// Algorithm 3.3 (FAILED differs only in skipping the handshake
			// bookkeeping; both remove u from S(v)).
			s.ghostGone[gi] = true
			if s.state[v] != stFree {
				continue
			}
			if s.cm[v] == u {
				s.recompute(v)
			}
		default:
			panic(fmt.Sprintf("matching: unknown record kind %d", kind))
		}
	}
}
