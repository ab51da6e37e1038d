package matching

import (
	"fmt"
	"slices"

	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// Distributed b-matching by the b-suitor scheme (Khan–Pothen et al.), the
// b(v) > 1 generalization of the locally-dominant protocol of Section 3 and
// the algorithm family of the paper's reference [9] (Halappanavar's thesis).
//
// Every vertex v keeps a set S(v) of the proposals it currently holds
// (capacity b(v)); every vertex separately owns a budget of b(v) outgoing
// proposals, issued in decreasing edge preference. The two roles never mix:
// once S(v) is full its minimum is monotonically non-decreasing (insertions
// must beat it), so a rejection is permanently valid and the proposal cursor
// never needs to revisit an edge. A displaced proposer re-proposes further
// down its list. At the fixed point the S sets are symmetric and equal the
// sequential greedy b-matching under the shared total edge order — the same
// "deterministic result at any rank count" property the paper reports for
// b = 1.
//
// The protocol is round-synchronized: PROPOSE → decide (REJECT / DISPLACED
// replies) → return budget → Allreduce("any proposals?").
// The two tags sit at the bases of their tag-family ranges
// (docs/PROTOCOL.md), so proposals and replies are metered separately in the
// per-tag-family traffic breakdown.
const (
	bTagPropose = mpi.TagBMatchProposeBase
	bTagReply   = mpi.TagBMatchReplyBase
)

// Record kinds, per family: propose carries only PROPOSE; both reply kinds
// return one unit of proposal budget to the proposer.
const (
	bPropose byte = 0

	bReject    byte = 0
	bDisplaced byte = 1
)

// bMaxRounds aborts a non-converging run (safety net; a round retires at
// least one arc per active vertex, so real inputs stay far below it).
const bMaxRounds = 1024

// BParallelResult is one rank's share of a distributed b-matching.
type BParallelResult struct {
	// PartnerGIDs[v] lists the global ids matched to owned vertex v, sorted.
	PartnerGIDs [][]int64
	// Rounds is the number of proposal rounds executed.
	Rounds int
	// LocalWeight counts each matched edge once globally (smaller-gid side).
	LocalWeight float64
}

// bArc is an arc from an owned vertex v to neighbor u (local index) with its
// position in the CSR and the two keys the edge order reads, looked up once: a
// preference-list entry, a pooled proposal (u proposes to v), or a held
// suitor.
type bArc struct {
	v, u int32
	arc  int64
	gid  int64 // global id of u
	w    float64
}

// compare orders arcs by owned endpoint, then by preference; distinct arcs
// never tie.
func (a bArc) compare(b bArc) int {
	if a.v != b.v {
		return int(a.v) - int(b.v)
	}
	if better(a.w, a.gid, b.w, b.gid) {
		return -1
	}
	return 1
}

type bState struct {
	rank
	b []int

	propose, reply link

	pref    []bArc   // the owned arcs, each vertex's segment sorted by edge preference
	cursor  []int64  // per owned vertex: next arc of pref to propose along
	held    []int    // outgoing proposals currently believed held
	suitors [][]bArc // S(v) per owned vertex, small unordered set

	proposed int64  // proposals this rank sent this round
	pool     []bArc // this round's received proposals
}

// BParallel runs the distributed b-suitor on this rank's share; b holds the
// capacities of the owned vertices in local index order.
func BParallel(c *mpi.Comm, d *dgraph.DistGraph, b []int, opt ParallelOptions) (*BParallelResult, error) {
	r, err := newRank(c, d, opt)
	if err != nil {
		return nil, err
	}
	if len(b) != d.NLocal {
		return nil, fmt.Errorf("matching: %d capacities for %d owned vertices", len(b), d.NLocal)
	}
	for v, cap := range b {
		if cap < 0 {
			return nil, fmt.Errorf("matching: negative capacity at local vertex %d", v)
		}
	}
	s := &bState{rank: r, b: b}
	rounds, err := s.run()
	if err != nil {
		return nil, err
	}
	res := &BParallelResult{PartnerGIDs: make([][]int64, d.NLocal), Rounds: rounds}
	for v, set := range s.suitors {
		gids := make([]int64, len(set))
		for i, p := range set {
			gids[i] = p.gid
			if s.countsEdge(int32(v), p.gid) {
				res.LocalWeight += p.w
			}
		}
		slices.Sort(gids)
		res.PartnerGIDs[v] = gids
	}
	return res, nil
}

func (s *bState) run() (int, error) {
	d := s.d
	n := d.NLocal
	s.held = make([]int, n)
	s.cursor = make([]int64, n)
	s.suitors = make([][]bArc, n)
	s.pref = make([]bArc, d.Xadj[n])
	for v := int32(0); int(v) < n; v++ {
		s.cursor[v] = d.Xadj[v]
		for i := d.Xadj[v]; i < d.Xadj[v+1]; i++ {
			s.pref[i] = bArc{v: v, u: d.Adj[i], arc: i, gid: d.GlobalOf(d.Adj[i]), w: d.Weight(i)}
		}
		slices.SortFunc(s.pref[d.Xadj[v]:d.Xadj[v+1]], bArc.compare)
		s.suitors[v] = make([]bArc, 0, min(s.b[v], d.Degree(v))) // full at its capacity
	}
	s.propose, s.reply = s.newLink(bTagPropose), s.newLink(bTagReply)

	for round := 1; round <= bMaxRounds; round++ {
		s.phasePropose()
		s.propose.out.Flush()
		s.c.Barrier()
		s.drain()
		s.phaseDecide()
		s.reply.out.Flush()
		s.c.Barrier()
		s.drain()
		if s.c.AllreduceInt64(s.proposed, mpi.OpSum) == 0 {
			return round, nil
		}
	}
	return bMaxRounds, fmt.Errorf("matching: b-suitor did not converge in %d rounds", bMaxRounds)
}

// drain takes everything in the mailbox, which after a barrier is all of the
// phase just ended. A peer already past that barrier may have sent its
// replies, so the proposal drain can meet the reply family too; replies only
// return budget, which nothing reads before the next propose phase, so they
// are applied on arrival and nothing is held. The next round's proposals wait
// behind the Allreduce, and any other family is refused by receive.
func (s *bState) drain() {
	for m, ok := s.c.TryRecv(); ok; m, ok = s.c.TryRecv() {
		if m.Tag == bTagReply {
			s.reply.receive(m, func(_ byte, v, _ int32) { s.returnBudget(v) })
		} else {
			s.propose.receive(m, func(_ byte, v, u int32) { s.poolProposal(v, s.arcOf(v, u)) })
		}
	}
}

// phasePropose advances every vertex with spare proposal budget down its
// preference list, optimistically counting each proposal as held. A proposal
// to a ghost is a record to its owner; one to an owned vertex has no rank pair
// to travel between and goes straight into the pool (charged like a record
// received).
func (s *bState) phasePropose() {
	s.proposed = 0
	var interior int64
	for v := int32(0); int(v) < s.d.NLocal; v++ {
		for s.held[v] < s.b[v] && s.cursor[v] < s.d.Xadj[v+1] {
			if a := s.pref[s.cursor[v]]; s.d.IsGhost(a.u) {
				s.propose.send(bPropose, a.arc)
			} else {
				s.poolProposal(a.u, s.arcOf(a.u, v))
				interior++
			}
			s.cursor[v]++
			s.held[v]++
			s.proposed++
		}
	}
	s.c.ChargeOps(interior, 0)
}

// poolProposal files the proposal that arrives at owned v along its arc at
// position arc into the round's pool, looking its keys up once.
func (s *bState) poolProposal(v int32, arc int64) {
	u := s.d.Adj[arc]
	s.pool = append(s.pool, bArc{v: v, u: u, arc: arc, gid: s.d.GlobalOf(u), w: s.d.Weight(arc)})
}

// phaseDecide takes the round's proposals in target-vertex order, best first
// per target, and admits each into the suitor set if there is room or it
// beats the minimum of a full set (displacing and notifying the old holder);
// losers are rejected. Full-set minima are monotone, so every rejection is
// final.
func (s *bState) phaseDecide() {
	slices.SortFunc(s.pool, bArc.compare)
	var interior int64
	// turnDown tells p's proposer it does not (or no longer) hold p.v: a
	// reply record across a cross edge, the budget handed back on the spot
	// within the rank.
	turnDown := func(kind byte, p bArc) {
		if s.d.IsGhost(p.u) {
			s.reply.send(kind, p.arc)
		} else {
			s.returnBudget(p.u)
			interior++
		}
	}
	for _, p := range s.pool {
		set := s.suitors[p.v]
		if len(set) < cap(set) {
			s.suitors[p.v] = append(set, p)
		} else if worst := worstOf(set); worst >= 0 && p.compare(set[worst]) < 0 {
			turnDown(bDisplaced, set[worst])
			set[worst] = p
		} else {
			turnDown(bReject, p)
		}
	}
	s.pool = s.pool[:0]
	s.c.ChargeOps(interior, 0)
}

// worstOf returns the index of a suitor set's least preferred proposal, or -1
// for an empty set.
func worstOf(set []bArc) int {
	worst := -1
	for i, p := range set {
		if worst < 0 || set[worst].compare(p) < 0 {
			worst = i
		}
	}
	return worst
}

// returnBudget hands one rejected or displaced proposal's budget back to its
// proposer v; v's cursor already sits past the failed edge, so the next
// propose phase moves on down the preference list.
func (s *bState) returnBudget(v int32) {
	s.held[v]--
	if s.held[v] < 0 {
		panic("matching: proposal budget underflow")
	}
}

// GatherB assembles per-rank BParallel results into a global BMatching,
// verifying cross-rank symmetry on the way (the b-suitor fixed point's
// suitor sets are symmetric; asymmetry indicates a protocol bug). b[rank]
// holds each rank's local capacity vector as passed to BParallel.
func GatherB(shares []*dgraph.DistGraph, results []*BParallelResult, b [][]int) (*BMatching, error) {
	if len(shares) == 0 || len(shares) != len(results) || len(shares) != len(b) {
		return nil, fmt.Errorf("matching: inconsistent gather inputs")
	}
	globalN := shares[0].GlobalN
	if globalN > 1<<31-1 {
		return nil, fmt.Errorf("matching: graph too large to gather")
	}
	m := &BMatching{
		B:        make([]int, globalN),
		Partners: make([][]graph.Vertex, globalN),
	}
	for rank, d := range shares {
		r := results[rank]
		if r == nil || len(r.PartnerGIDs) != d.NLocal || len(b[rank]) != d.NLocal {
			return nil, fmt.Errorf("matching: rank %d result/capacities malformed", rank)
		}
		for v := 0; v < d.NLocal; v++ {
			gid := d.GlobalOf(int32(v))
			m.B[gid] = b[rank][v]
			for _, pg := range r.PartnerGIDs[v] {
				m.Partners[gid] = append(m.Partners[gid], graph.Vertex(pg))
			}
		}
	}
	for v := range m.Partners { // each sorted already: one rank's sorted PartnerGIDs
		for _, u := range m.Partners[v] {
			if !slices.Contains(m.Partners[u], graph.Vertex(v)) {
				return nil, fmt.Errorf("matching: ranks disagree on pair {%d,%d}", v, u)
			}
		}
	}
	return m, nil
}
