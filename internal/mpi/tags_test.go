package mpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestFamilyOf(t *testing.T) {
	cases := []struct {
		tag  int
		want TagFamily
	}{
		{-1, FamilyRuntime},
		{-4, FamilyRuntime},
		{0, FamilyUser},
		{42, FamilyUser},
		{99, FamilyUser},
		{TagMatchBase, FamilyMatch},
		{TagMatchBase + 9, FamilyMatch},
		{110, FamilyUser}, // the matching range ends at 109; nothing is reserved up to the color range
		{119, FamilyUser},
		{120, FamilyUser},
		{129, FamilyUser},
		{130, FamilyUser},
		{TagColorBase, FamilyColor},
		{TagColorEnd - 1, FamilyColor},
		{TagColorEnd, FamilyUser},
	}
	for _, c := range cases {
		if got := FamilyOf(c.tag); got != c.want {
			t.Errorf("FamilyOf(%d) = %v, want %v", c.tag, got, c.want)
		}
	}
	if NumTagFamilies != 4 {
		t.Errorf("NumTagFamilies = %d, want 4 (match, color, user, runtime)", NumTagFamilies)
	}
	// Every family must have a distinct, stable name — the metric suffixes and
	// the live-snapshot JSON both key on it.
	seen := map[string]bool{}
	for f := TagFamily(0); f < NumTagFamilies; f++ {
		name := f.String()
		if name == "" || seen[name] {
			t.Errorf("family %d name %q empty or duplicated", f, name)
		}
		seen[name] = true
	}
}

// TestFamilySumsMatchAggregates drives traffic across several tag families on
// the inproc backend and checks, rank by rank, that the family breakdown sums
// exactly to the aggregate counters.
func TestFamilySumsMatchAggregates(t *testing.T) {
	const p = 3
	w, err := NewWorld(p, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		next := (c.Rank() + 1) % p
		c.Send(next, TagMatchBase, make([]byte, 3))
		c.Send(next, TagColorBase+7, make([]byte, 5))
		c.Send(next, 42, make([]byte, 7)) // plain user tag
		for i := 0; i < 3; i++ {
			c.Recv()
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		s := w.RankStats(r)
		got := s.UserFamilyTotals()
		want := FamilyStats{SentMsgs: s.SentMsgs, SentBytes: s.SentBytes, RecvMsgs: s.RecvMsgs, RecvBytes: s.RecvBytes}
		if got != want {
			t.Errorf("rank %d: family totals %+v != aggregates %+v", r, got, want)
		}
		for f, fwant := range map[TagFamily]FamilyStats{
			FamilyMatch: {SentMsgs: 1, SentBytes: 3, RecvMsgs: 1, RecvBytes: 3},
			FamilyColor: {SentMsgs: 1, SentBytes: 5, RecvMsgs: 1, RecvBytes: 5},
			FamilyUser:  {SentMsgs: 1, SentBytes: 7, RecvMsgs: 1, RecvBytes: 7},
			// inproc collectives are shared-memory: no runtime wire traffic.
			FamilyRuntime: {},
		} {
			if s.ByFamily[f] != fwant {
				t.Errorf("rank %d family %v: %+v, want %+v", r, f, s.ByFamily[f], fwant)
			}
		}
	}
}

// TestPublishedFamilyStatsMatchTotals: the per-family vecs the world publishes
// into the registry must reconcile with the ByFamily counters, and families
// that saw no traffic must not be published at all.
func TestPublishedFamilyStatsMatchTotals(t *testing.T) {
	const p = 2
	o := obs.NewObserver(p, 64)
	w, err := NewWorld(p, WithObserver(o), WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		c.Send((c.Rank()+1)%p, TagMatchBase+1, make([]byte, 4))
		c.Recv()
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Registry().Snapshot()
	total := w.TotalStats()
	sum := func(name string) int64 {
		var s int64
		for _, v := range snap.PerRank[name] {
			s += v
		}
		return s
	}
	fam := total.ByFamily[FamilyMatch]
	for name, want := range map[string]int64{
		"mpi.sent_msgs.match":  fam.SentMsgs,
		"mpi.sent_bytes.match": fam.SentBytes,
		"mpi.recv_msgs.match":  fam.RecvMsgs,
		"mpi.recv_bytes.match": fam.RecvBytes,
	} {
		if got := sum(name); got != want || want == 0 {
			t.Errorf("%s = %d, want %d (nonzero)", name, got, want)
		}
	}
	for _, quiet := range []string{"mpi.sent_msgs.color", "mpi.sent_msgs.user", "mpi.sent_msgs.runtime"} {
		if _, ok := snap.PerRank[quiet]; ok {
			t.Errorf("zero-traffic family published: %s", quiet)
		}
	}
}

// TestTCPDrainTagLeavesStashedRuntime pins the DrainTag/stash contract when
// reserved-tag runtime messages are interleaved with user traffic over a real
// wire: TryRecv stashes the peers' barrier messages while surfacing the user
// message, a subsequent DrainTag must not discard those stashed runtime
// messages, and the rank's own Barrier then completes by consuming them.
func TestTCPDrainTagLeavesStashedRuntime(t *testing.T) {
	const n = 3
	runOverTCP(t, n, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			c.Send(0, 5, []byte("payload"))
			c.Barrier()
		case 2:
			c.Barrier()
		case 0:
			// Spin on TryRecv until the user message has surfaced AND both
			// peers' barrier messages (tag -1) have been popped into the
			// stash — the peers are blocked in Barrier waiting for rank 0,
			// so both conditions are guaranteed to become true.
			gotUser := false
			for !gotUser || len(c.stash) < n-1 {
				m, ok := c.TryRecv()
				if !ok {
					continue
				}
				if m.Tag != 5 || m.From != 1 || gotUser {
					return fmt.Errorf("unexpected message tag %d from %d", m.Tag, m.From)
				}
				gotUser = true
			}
			for _, m := range c.stash {
				if m.Tag != tagBarrier {
					return fmt.Errorf("stash holds tag %d, want only %d", m.Tag, tagBarrier)
				}
			}
			if dropped := c.DrainTag(5); dropped != 0 {
				return fmt.Errorf("DrainTag dropped %d, want 0 (message already received)", dropped)
			}
			if len(c.stash) != n-1 {
				return fmt.Errorf("DrainTag discarded stashed runtime messages: %d left, want %d", len(c.stash), n-1)
			}
			c.Barrier() // completes only if the stashed barrier messages survived
		}
		return nil
	})
}

// TestTCPDrainTagStashedUserDuringBarrier covers the complementary
// interleaving: a user message sent before the peer's Barrier is popped and
// stashed by the barrier's own per-peer take, and DrainTag then removes it
// from the stash — exactly once, with no double counting — while the runtime
// traffic it crossed paths with stays out of the aggregates.
func TestTCPDrainTagStashedUserDuringBarrier(t *testing.T) {
	worlds := runOverTCP(t, 2, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			c.Send(0, 5, []byte("stale"))
			c.Barrier()
			c.Send(0, 6, []byte("fresh"))
		case 0:
			// The remote barrier pops rank 1's queue looking for tag -1 and
			// stashes the tag-5 message it finds first (per-pair FIFO).
			c.Barrier()
			if len(c.stash) != 1 || c.stash[0].Tag != 5 {
				t.Errorf("after barrier stash = %+v, want one tag-5 message", c.stash)
			}
			m, _ := c.take(true, anySender, 6)
			if string(m.Data) != "fresh" {
				return fmt.Errorf("tag 6 payload %q", m.Data)
			}
			if dropped := c.DrainTag(5); dropped != 1 {
				return fmt.Errorf("DrainTag dropped %d, want 1 (the stashed stale message)", dropped)
			}
			if len(c.stash) != 0 {
				return fmt.Errorf("stash not empty after drain: %+v", c.stash)
			}
		}
		return nil
	})
	// Rank 0 received exactly two user messages (one stashed-then-drained, one
	// delivered); the barrier's reserved traffic is metered only in the
	// runtime family.
	s := worlds[0].RankStats(0)
	if s.RecvMsgs != 2 {
		t.Errorf("rank 0 RecvMsgs = %d, want 2 (no double counting through stash+drain)", s.RecvMsgs)
	}
	if got, want := s.UserFamilyTotals(), (FamilyStats{RecvMsgs: s.RecvMsgs, RecvBytes: s.RecvBytes, SentMsgs: s.SentMsgs, SentBytes: s.SentBytes}); got != want {
		t.Errorf("rank 0 family totals %+v != aggregates %+v", got, want)
	}
	if rt := s.ByFamily[FamilyRuntime]; rt.RecvMsgs == 0 {
		t.Errorf("rank 0 runtime family saw no barrier traffic: %+v", rt)
	}
}

// Only a remote collective can push a user message into the stash (the
// in-process ones meet in shared memory and receive nothing), so the two
// stash-side DrainTag checks run over tcp: both ranks post before the barrier,
// whose per-peer take pops and stashes what precedes the barrier message.

// TestDrainTagClearsStash: a stashed message is drained, exactly once.
func TestDrainTagClearsStash(t *testing.T) {
	runOverTCP(t, 2, func(c *Comm) error {
		c.Send(1-c.Rank(), 7, []byte{9})
		c.Barrier()
		if len(c.stash) != 1 {
			return fmt.Errorf("stash holds %d messages after the barrier, want 1", len(c.stash))
		}
		if n := c.DrainTag(7); n != 1 {
			return fmt.Errorf("drained %d stashed messages, want 1", n)
		}
		if n := c.DrainTag(7); n != 0 {
			return fmt.Errorf("second drain found %d", n)
		}
		return nil
	})
}

// TestDrainTagStatsAccounting checks that dropped bundles still count as
// received traffic, once: DrainTag is a receive-and-discard, not a rollback,
// so the global sent/received balance holds after a drain from the stash.
func TestDrainTagStatsAccounting(t *testing.T) {
	worlds := runOverTCP(t, 2, func(c *Comm) error {
		c.Send(1-c.Rank(), 5, make([]byte, 40))
		c.Send(1-c.Rank(), 7, make([]byte, 8))
		c.Barrier() // stashes both
		for _, tag := range []int{5, 7} {
			if n := c.DrainTag(tag); n != 1 {
				return fmt.Errorf("drained %d tag-%d, want 1", n, tag)
			}
		}
		return nil
	})
	var total Stats
	for r, w := range worlds {
		total.Add(w.RankStats(r))
	}
	if total.SentMsgs != 4 || total.RecvMsgs != 4 || total.SentBytes != 96 || total.RecvBytes != 96 {
		t.Fatalf("stats after drains %v, want 4 msgs / 96 B each way", total)
	}
}
