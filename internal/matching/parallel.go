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
	// It adds them in local order, so its bits are the same on every run.
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

// LocallyDominant computes the half-approximate matching sequentially —
// Section 3.1's algorithm, whose loop is the kernel's rank-local part: it runs
// over g as one ghost-free share (dgraph.Whole), where the sweep and its
// drains decide every vertex and nothing is ever sent. A retired vertex's
// candidate is its mate, or noCM (graph.None) if it failed, so the answer is
// read off the records.
//
// The result is deterministic and, under the one edge order, identical to
// the sorted-edge Greedy matching, but the computation touches edges only
// locally, which is the property the parallel version exploits.
func LocallyDominant(g *graph.Graph) Mates {
	s := &matchState{rank: rank{d: dgraph.Whole(g)}}
	s.local()
	m := make(Mates, len(s.st))
	for v, sv := range s.st {
		m[v] = sv.cm
	}
	return m
}

// result hands over the mates retire wrote and sums LocalWeight.
func (s *matchState) result() *ParallelResult {
	res := &ParallelResult{
		MateGlobal:      s.mate,
		OuterIterations: s.outerIters,
		Bundles:         s.match.out.Flushes,
		Records:         s.match.out.Records,
	}
	for v, m := range s.mate {
		if m > s.d.GlobalID[v] { // the LocalWeight convention
			res.LocalWeight += s.d.Weight(s.d.Xadj[v] + int64(s.off[v]))
		}
	}
	return res
}

// vertexState is what a drain step reads of an owned vertex. A "by list" (the
// owned vertices that took one as candidate) is linked one up: zero ends it.
type vertexState struct {
	cm   int32 // candidate mate (local index), or noCM; once matched, the mate
	next int32 // 1 + the vertex after this one on its candidate's by list; 0 at the end
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
	st         []vertexState // per owned vertex
	off        []int32       // per owned vertex: row position of the arc to cm (of the matched edge)
	by         []int32       // per owned vertex: 1 + the head of its by list; 0 for an empty list
	mate       []int64       // per owned vertex: the answer, written by retire (nil in a sequential run)
	reqTo      []int32       // per ghost: 1 + the owned vertex it requests (the sets R), or 0
	undecided  int           // owned vertices still free
	queue      []int32       // owned vertices that just became unavailable
	swept      int32         // the last owned vertex the initial sweep has reached
	outerIters int64

	// onDrain, set only by tests, sees each queued vertex just before the
	// drain walks its by list.
	onDrain func(v int32)
}

const noCM int32 = -1

// run is the distributed kernel: the rank-local part with a record link and
// an answer array, then the protocol.
func (s *matchState) run() error {
	s.mate = make([]int64, s.d.NLocal)
	s.match = s.newLink(matchTag)
	s.local()
	return s.protocol()
}

// local is the rank-local part of the kernel: it allocates the state, sets
// the first candidates, sweeps the boundary group and then the interior
// group, draining as it goes. It touches the runtime only to charge virtual
// time and trace (both skipped with no Comm), and through the two ghost
// branches, pursue's REQUEST and retire's cross-arc walk, which a share with
// no boundary never reaches.
func (s *matchState) local() {
	d := s.d
	n := d.NLocal
	s.gone = make([]bool, n+d.NGhost)
	s.st = make([]vertexState, n)
	s.off = make([]int32, n)
	s.by = make([]int32, n)
	s.reqTo = make([]int32, d.NGhost)
	s.undecided = n

	// Initialization: every candidate mate is the share's preferred arc —
	// what the scan finds while nothing is gone. A sweep in local order then
	// requests across cross edges and matches mutual local pairs. Over the
	// interior group it drains after every vertex, while the rows the cascade
	// walks are in cache: a drain recomputes only vertices the sweep has
	// passed, and the sweep recomputes one whose candidate is gone (and so
	// drained already). Virtual-time accounting stays the paper's: one edge
	// op per arc scanned, one vertex op per vertex initialized.
	initTok := s.tr.Begin("match.init")
	s.c.ChargeOps(d.Xadj[n], int64(n))
	for v := int32(0); int(v) < n; v++ {
		s.setCandidate(v, d.Preferred[v])
	}
	for v := int32(0); int(v) < d.NumBoundary; v++ {
		if !s.gone[v] { // not yet matched by a smaller mutual candidate
			s.pursue(v)
		}
	}
	innerTok := s.tr.BeginDetail("match.inner")
	s.swept = int32(d.NumBoundary) - 1
	drained := s.drain()
	for v := int32(d.NumBoundary); int(v) < n; v++ {
		s.swept = v
		if !s.gone[v] {
			if c := s.st[v].cm; c != noCM && s.gone[c] {
				s.recompute(v)
			} else {
				s.pursue(v)
			}
		}
		if len(s.queue) > 0 {
			drained += s.drain()
		}
	}
	s.tr.EndN(innerTok, int64(drained))
	s.tr.EndN(initTok, int64(n))
}

// protocol is the rest of the kernel, run once local has swept the share.
func (s *matchState) protocol() error {
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
		if len(s.queue) > 0 {
			tok := s.tr.BeginDetail("match.inner")
			s.tr.EndN(tok, int64(s.drain()))
		}
		s.tr.EndN(outerTok, s.outerIters)
	}
	finTok := s.tr.Begin("match.finalize")
	s.match.out.Flush()
	// Termination is local, so slower peers' stale SUCCEEDED/FAILED records
	// may still be on their way, from neighbour ranks only (records travel
	// along edges). One empty exchange with them, entered after each one's
	// last flush, fences them in, and they are cleared for the next phase.
	s.c.NeighborExchange(matchTag, s.d.NeighborRanks, make([][]byte, len(s.d.NeighborRanks)))
	s.c.DrainTag(matchTag)
	s.tr.End(finTok)
	return nil
}

// setCandidate makes the neighbor at position k of owned vertex v's row its
// candidate mate (noCM for k < 0), and puts v on that candidate's by list if
// it is owned. It is the one place an owned vertex's candidate is written.
// No list is ever unlinked: v's candidate changes only once that candidate
// is gone and its list walked past v (a ghost keeps none), so overwriting
// v's next cuts nothing that will be read.
func (s *matchState) setCandidate(v int32, k int32) {
	sv := &s.st[v]
	if k < 0 {
		sv.cm, s.off[v] = noCM, -1
		return
	}
	c := s.d.Adj[s.d.Xadj[v]+int64(k)]
	sv.cm, s.off[v] = c, k
	if int(c) < s.d.NLocal {
		sv.next, s.by[c] = s.by[c], v+1
	}
}

// retire takes owned vertex v out of the free set — matched to its candidate
// (owned or ghost), or failed with none — writes its answer if the run keeps
// an answer array, queues the fallout, and tells every remaining neighbor but the mate: SUCCEEDED /
// FAILED records across cross edges; owned neighbors learn during the queue
// drain. Pending requests R(v) are implicitly cleared because v is no longer
// free.
func (s *matchState) retire(v int32, kind byte) {
	d := s.d
	cm := s.st[v].cm
	s.gone[v] = true
	s.undecided--
	s.queue = append(s.queue, v)
	if s.mate != nil {
		s.mate[v] = -1
		if cm != noCM {
			s.mate[v] = d.GlobalOf(cm)
		}
	}
	if int(v) >= d.NumBoundary {
		return // an interior vertex: no arc to a ghost
	}
	row := d.Xadj[v]
	for _, k := range d.CrossArcsOf(v) {
		if u := d.Adj[row+int64(k)]; u != cm && !s.gone[u] {
			s.match.send(kind, row+int64(k))
		}
	}
}

// drain is the inner loop: every queued vertex just became unavailable, so
// each free owned neighbor pointing at it recomputes its candidate and may
// match, request, or fail — cascading without any communication (messages to
// ghosts are only *buffered* here; the outer loop ships them). Those
// neighbors are found on the retired vertex's by list, not by a walk of its
// row; the guard skips what has since retired or lies beyond the sweep. The
// queue is walked by index, so what recompute appends is reached in turn.
// drain returns how many vertices it took off the queue.
func (s *matchState) drain() int {
	for i := 0; i < len(s.queue); i++ {
		v := s.queue[i]
		if s.onDrain != nil {
			s.onDrain(v)
		}
		for x := s.by[v]; x != 0; {
			w := x - 1
			sw := &s.st[w]
			x = sw.next // recompute pushes w onto its new candidate's list
			if sw.cm == v && w <= s.swept && !s.gone[w] {
				s.recompute(w)
			}
		}
	}
	n := len(s.queue)
	s.queue = s.queue[:0]
	return n
}

// recompute refreshes the candidate mate of free owned vertex w after its
// previous candidate became unavailable, and acts on the new one.
func (s *matchState) recompute(w int32) {
	s.c.ChargeOps(int64(s.d.Degree(w)), 1)
	s.setCandidate(w, int32(graph.BestArc(s.d.Neighbors(w), s.d.Weights(w), s.gone)))
	s.pursue(w)
}

// pursue takes whatever action free owned vertex w's fresh candidate allows
// (Algorithm 3.3's PROCESSSUCCEEDEDMESSAGE body): fail without one, request
// a ghost, match an owned vertex that points back.
func (s *matchState) pursue(w int32) {
	nc := s.st[w].cm
	switch {
	case nc == noCM:
		s.retire(w, msgFailed)
	case s.d.IsGhost(nc):
		s.match.send(msgRequest, s.d.Xadj[w]+int64(s.off[w]))
		if s.reqTo[int(nc)-s.d.NLocal] == w+1 {
			// The ghost already asked for w: handshake complete
			// (Algorithm 3.3's "if candidateMate(v) is in R(v)" branch).
			s.retire(w, msgSucceeded)
		}
	case s.st[nc].cm == w && !s.gone[nc]:
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
		if s.st[v].cm == u {
			s.retire(v, msgSucceeded)
		} else {
			// Remember the request; a later REQUEST from the same ghost
			// (after it recomputed) supersedes this one.
			s.reqTo[int(u)-s.d.NLocal] = v + 1
		}
	case msgSucceeded, msgFailed:
		// Algorithm 3.3 (FAILED differs only in skipping the handshake
		// bookkeeping; both remove u from S(v)).
		s.gone[u] = true
		if !s.gone[v] && s.st[v].cm == u {
			s.recompute(v)
		}
	default:
		panic(fmt.Sprintf("matching: unknown record kind %d", kind))
	}
}
