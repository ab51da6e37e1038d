package matching

import (
	"fmt"

	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
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

// Parallel runs the distributed locally-dominant matching on this rank's
// share d, communicating over c. Every rank of the world must call Parallel
// with its own share of the same graph. The computation interleaves an inner
// loop that drains a queue of locally decided vertices (interior work, no
// messages) with an outer loop that exchanges bundled REQUEST / SUCCEEDED /
// FAILED messages for the boundary (Section 3.3); it terminates when every
// owned vertex is decided, or returns mpi.ErrCanceled once the world is
// canceled.
func Parallel(c *mpi.Comm, d *dgraph.DistGraph, opt ParallelOptions) (*ParallelResult, error) {
	r, err := newRank(c, d, opt)
	if err != nil {
		return nil, err
	}
	s := &matchState{rank: r}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// result reads this rank's share of the matching off the finished state.
func (s *matchState) result() *ParallelResult {
	d := s.d
	res := &ParallelResult{
		MateGlobal:      make([]int64, d.NLocal),
		OuterIterations: s.outerIters,
		Bundles:         s.match.out.Flushes,
		Records:         s.match.out.Records,
	}
	for v := int32(0); int(v) < d.NLocal; v++ {
		res.MateGlobal[v] = -1
		if s.cm[v] != noCM { // every owned vertex is retired; only a failed one has no candidate
			res.MateGlobal[v] = d.GlobalOf(s.cm[v])
			if d.GlobalOf(v) < res.MateGlobal[v] { // the LocalWeight convention
				res.LocalWeight += d.Weight(s.cmArc[v])
			}
		}
	}
	return res
}

// matchState carries the per-rank protocol state.
type matchState struct {
	rank
	match link // the REQUEST / SUCCEEDED / FAILED records

	// gone is the one liveness array, over every local index (owned vertices
	// first, then ghosts): an owned vertex once retired, a ghost once its
	// SUCCEEDED / FAILED is in. A retired vertex is matched iff it has a
	// candidate, since a vertex only fails with none.
	gone       []bool
	cm         []int32 // candidate mate (local index), or -1; once matched, the mate
	cmArc      []int64 // position in the CSR of the arc to cm; once matched, of the matched edge
	by         []int32 // per owned vertex: the last owned vertex that took it as candidate, or noCM
	next       []int32 // per owned vertex w: the vertex before w in its candidate's by list
	reqTo      []int32 // per ghost: owned vertex it currently requests (the sets R), or noCM
	undecided  int     // owned vertices still free
	queue      []int32 // owned vertices that just became unavailable
	outerIters int64

	// onDrain, set only by tests, sees each queued vertex just before
	// drainQueue walks its by list.
	onDrain func(v int32)
}

const noCM int32 = -1

func (s *matchState) run() error {
	d := s.d
	n := d.NLocal
	s.gone = make([]bool, n+d.NGhost)
	s.cm = make([]int32, n)
	s.cmArc = make([]int64, n)
	s.by = make([]int32, n)
	s.next = make([]int32, n)
	for i := range s.by {
		s.by[i] = noCM
	}
	s.reqTo = make([]int32, d.NGhost)
	for i := range s.reqTo {
		s.reqTo[i] = noCM
	}
	s.undecided = n
	s.match = s.newLink(matchTag)

	// Initialization: every candidate mate is the share's preferred arc —
	// what the scan finds while nothing is gone; request across cross edges;
	// match mutual local pairs. Virtual-time accounting stays the paper's:
	// one edge op per arc scanned, one vertex op per vertex initialized.
	initTok := s.tr.Begin("match.init")
	s.c.ChargeOps(d.Xadj[n], int64(n))
	for v := int32(0); int(v) < n; v++ {
		s.setCandidate(v, int(d.Preferred[v]))
	}
	for v := int32(0); int(v) < n; v++ {
		if !s.gone[v] { // not yet matched by a smaller mutual candidate
			s.pursue(v)
		}
	}
	s.drainQueue()
	s.tr.EndN(initTok, int64(n))

	// Outer loop: flush bundles, block for traffic, process, repeat, until
	// every owned vertex is decided. Ranks whose vertices are all decided
	// have already informed every neighbor (SUCCEEDED/FAILED were sent at
	// decision time), so exiting early starves nobody. A canceled world
	// stops here, once per outer iteration.
	for s.undecided > 0 {
		if err := s.c.Err(); err != nil {
			return err
		}
		s.outerIters++
		outerTok := s.tr.Begin("match.outer")
		s.match.out.Flush()
		s.match.receive(s.c.Recv(), s.handle)
		for m, ok := s.c.TryRecv(); ok; m, ok = s.c.TryRecv() {
			s.match.receive(m, s.handle)
		}
		s.drainQueue()
		s.tr.EndN(outerTok, s.outerIters)
	}
	finTok := s.tr.Begin("match.finalize")
	s.match.out.Flush()
	// Termination is local (the paper's outer loop stops when this rank's
	// cross edges are resolved), so slower peers' stale SUCCEEDED/FAILED
	// messages may still be addressed to us. Align on a barrier — by which
	// point every rank has sent everything — and clear them, so that a
	// subsequent phase on the same world starts clean. The algorithm itself
	// is complete before this fence.
	s.c.Barrier()
	s.c.DrainTag(matchTag)
	s.tr.End(finTok)
	return nil
}

// setCandidate makes the neighbor at position k of owned vertex v's row its
// candidate mate (noCM for k < 0), and puts v on that candidate's by list if
// it is owned. It is the one place an owned vertex's candidate is written.
//
// No list is ever unlinked. cm[v] changes only once its candidate is gone:
// from drainQueue walking that candidate's list, which has read next[v]
// already, or from handle for a ghost, which keeps no list. So of the lists
// v has been pushed onto, only the last can still be walked, and overwriting
// next[v] cuts nothing that will be read.
func (s *matchState) setCandidate(v int32, k int) {
	if k < 0 {
		s.cm[v], s.cmArc[v] = noCM, -1
		return
	}
	arc := s.d.Xadj[v] + int64(k)
	c := s.d.Adj[arc]
	s.cm[v], s.cmArc[v] = c, arc
	if int(c) < s.d.NLocal {
		s.next[v], s.by[c] = s.by[c], v
	}
}

// retire takes owned vertex v out of the free set — matched to its candidate
// cm[v] (owned or ghost), or failed with cm[v] = noCM — queues the fallout,
// and tells every remaining neighbor but the mate: SUCCEEDED / FAILED records
// across cross edges; owned neighbors learn during the queue drain. Pending
// requests R(v) are implicitly cleared because v is no longer free.
func (s *matchState) retire(v int32, kind byte) {
	s.gone[v] = true
	s.undecided--
	s.queue = append(s.queue, v)
	d := s.d
	row := d.Xadj[v]
	for _, k := range d.CrossArcsOf(v) { // none for an interior vertex
		if i := row + int64(k); d.Adj[i] != s.cm[v] && !s.gone[d.Adj[i]] {
			s.match.send(kind, i)
		}
	}
}

// drainQueue is the inner loop: every queued vertex just became unavailable,
// so each free owned neighbor pointing at it recomputes its candidate and may
// match, request, or fail — cascading without any communication (messages to
// ghosts are only *buffered* here; the outer loop ships them). Those
// neighbors are found on the retired vertex's by list, not by a walk of its
// row; the list also holds vertices that have since retired, which the guard
// skips. The queue is walked by index, so what recompute appends is reached
// in turn, and its backing array serves the next drain.
func (s *matchState) drainQueue() {
	if len(s.queue) == 0 {
		return
	}
	tok := s.tr.BeginDetail("match.inner")
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		if s.onDrain != nil {
			s.onDrain(v)
		}
		for w := s.by[v]; w != noCM; {
			next := s.next[w] // recompute pushes w onto its new candidate's list
			if s.cm[w] == v && !s.gone[w] {
				s.recompute(w)
			}
			w = next
		}
	}
	s.tr.EndN(tok, int64(len(s.queue)))
	s.queue = s.queue[:0]
}

// recompute refreshes the candidate mate of free owned vertex w after its
// previous candidate became unavailable, and acts on the new one.
func (s *matchState) recompute(w int32) {
	s.c.ChargeOps(int64(s.d.Degree(w)), 1)
	s.setCandidate(w, graph.BestArc(s.d.Neighbors(w), s.d.Weights(w), s.gone))
	s.pursue(w)
}

// pursue takes whatever action free owned vertex w's fresh candidate allows
// (Algorithm 3.3's PROCESSSUCCEEDEDMESSAGE body): fail without one, request
// a ghost, match an owned vertex that points back.
func (s *matchState) pursue(w int32) {
	nc := s.cm[w]
	switch {
	case nc == noCM:
		s.retire(w, msgFailed)
	case s.d.IsGhost(nc):
		s.match.send(msgRequest, s.cmArc[w])
		if s.reqTo[int(nc)-s.d.NLocal] == w {
			// The ghost already asked for w: handshake complete
			// (Algorithm 3.3's "if candidateMate(v) is in R(v)" branch).
			s.retire(w, msgSucceeded)
		}
	case s.cm[nc] == w && !s.gone[nc]:
		s.retire(w, msgSucceeded)
		s.retire(nc, msgSucceeded)
	}
}

// handle processes one received protocol record, from ghost u about owned
// vertex v.
func (s *matchState) handle(kind byte, v, u int32) {
	switch kind {
	case msgRequest:
		// Algorithm 3.2. A request from an already-gone ghost cannot
		// happen under per-pair FIFO (its SUCCEEDED/FAILED would follow,
		// not precede, its REQUEST).
		if s.gone[v] {
			return // v already matched or failed; u was informed then
		}
		if s.cm[v] == u {
			s.retire(v, msgSucceeded)
		} else {
			// Remember the request; a later REQUEST from the same ghost
			// (after it recomputed) supersedes this one.
			s.reqTo[int(u)-s.d.NLocal] = v
		}
	case msgSucceeded, msgFailed:
		// Algorithm 3.3 (FAILED differs only in skipping the handshake
		// bookkeeping; both remove u from S(v)).
		s.gone[u] = true
		if !s.gone[v] && s.cm[v] == u {
			s.recompute(v)
		}
	default:
		panic(fmt.Sprintf("matching: unknown record kind %d", kind))
	}
}
