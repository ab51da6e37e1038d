package mpi

import (
	"fmt"
	"sync/atomic"
)

// FamilyStats counts one tag family's share of a rank's traffic.
type FamilyStats struct {
	SentMsgs  int64
	SentBytes int64
	RecvMsgs  int64
	RecvBytes int64
}

// Add accumulates o into s.
func (s *FamilyStats) Add(o FamilyStats) {
	s.SentMsgs += o.SentMsgs
	s.SentBytes += o.SentBytes
	s.RecvMsgs += o.RecvMsgs
	s.RecvBytes += o.RecvBytes
}

// Stats counts a rank's traffic. The experiment harness snapshots these per
// phase; the α–β performance model consumes (SentMsgs, SentBytes) to predict
// Blue Gene/P-scale times.
//
// The aggregate fields cover user traffic only (the algorithm's cost): they
// are UserFamilyTotals(), the sum of the ByFamily breakdown less the runtime
// family, the collectives' traffic, which is excluded by design.
type Stats struct {
	SentMsgs  int64
	SentBytes int64
	RecvMsgs  int64
	RecvBytes int64
	// ByFamily splits the traffic by message-tag family (see FamilyOf).
	ByFamily [NumTagFamilies]FamilyStats
}

// UserFamilyTotals sums the non-runtime families: {SentMsgs, SentBytes,
// RecvMsgs, RecvBytes} of a rank's Stats are defined as this sum.
func (s Stats) UserFamilyTotals() FamilyStats {
	var t FamilyStats
	for f := TagFamily(0); f < NumTagFamilies; f++ {
		if f == FamilyRuntime {
			continue
		}
		t.Add(s.ByFamily[f])
	}
	return t
}

// famCounters is the live per-family form of FamilyStats.
type famCounters struct {
	sentMsgs  atomic.Int64
	sentBytes atomic.Int64
	recvMsgs  atomic.Int64
	recvBytes atomic.Int64
}

// rankCounters is the live form of Stats: lock-free atomic cells, one set
// per tag family, written by the owning rank's goroutine on every
// send/receive and readable from any goroutine at any time — live metrics
// polling (RankStats/TotalStats while Run is in flight) never races and never
// blocks the hot path. There are no aggregate cells: the aggregates are the
// sum of the user families, taken when a snapshot is read.
type rankCounters struct {
	fam [NumTagFamilies]famCounters
}

// countSent records one outbound message of family f, user or runtime.
func (rc *rankCounters) countSent(f TagFamily, bytes int64) {
	rc.fam[f].sentMsgs.Add(1)
	rc.fam[f].sentBytes.Add(bytes)
}

// countRecv records inbound messages of family f, user or runtime.
func (rc *rankCounters) countRecv(f TagFamily, msgs, bytes int64) {
	rc.fam[f].recvMsgs.Add(msgs)
	rc.fam[f].recvBytes.Add(bytes)
}

// reset zeroes every counter — the per-job stats isolation World.Reset gives
// pooled worlds. Only called between runs, when no rank goroutine is writing.
func (rc *rankCounters) reset() {
	for f := range rc.fam {
		rc.fam[f].sentMsgs.Store(0)
		rc.fam[f].sentBytes.Store(0)
		rc.fam[f].recvMsgs.Store(0)
		rc.fam[f].recvBytes.Store(0)
	}
}

// snapshot reads the counters. The loads are individually atomic, not a
// consistent cut — momentary skew between fields is inherent to live
// polling and irrelevant to end-of-run reads.
func (rc *rankCounters) snapshot() Stats {
	var s Stats
	for f := range rc.fam {
		s.ByFamily[f] = FamilyStats{
			SentMsgs:  rc.fam[f].sentMsgs.Load(),
			SentBytes: rc.fam[f].sentBytes.Load(),
			RecvMsgs:  rc.fam[f].recvMsgs.Load(),
			RecvBytes: rc.fam[f].recvBytes.Load(),
		}
	}
	t := s.UserFamilyTotals()
	s.SentMsgs, s.SentBytes, s.RecvMsgs, s.RecvBytes = t.SentMsgs, t.SentBytes, t.RecvMsgs, t.RecvBytes
	return s
}

// Add accumulates o into s, families included.
func (s *Stats) Add(o Stats) {
	s.SentMsgs += o.SentMsgs
	s.SentBytes += o.SentBytes
	s.RecvMsgs += o.RecvMsgs
	s.RecvBytes += o.RecvBytes
	for f := range s.ByFamily {
		s.ByFamily[f].Add(o.ByFamily[f])
	}
}

// String renders the aggregate counters (families elided).
func (s Stats) String() string {
	return fmt.Sprintf("sent %d msgs/%d B, recv %d msgs/%d B",
		s.SentMsgs, s.SentBytes, s.RecvMsgs, s.RecvBytes)
}

// StatsSnapshot returns this rank's counters at the current moment. Safe to
// call from any goroutine, including while Run is in flight.
func (c *Comm) StatsSnapshot() Stats {
	return c.world.RankStats(c.rank)
}
