package mpi

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunBasicExchange(t *testing.T) {
	const p = 4
	err := Run(p, func(c *Comm) error {
		// Each rank sends its id to every other rank and sums what it gets.
		for to := 0; to < p; to++ {
			if to == c.Rank() {
				continue
			}
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, uint64(c.Rank()))
			c.Send(to, 1, buf)
		}
		sum := 0
		for i := 0; i < p-1; i++ {
			m := c.Recv()
			if m.Tag != 1 {
				return fmt.Errorf("tag %d, want 1", m.Tag)
			}
			sum += int(binary.LittleEndian.Uint64(m.Data))
		}
		want := p*(p-1)/2 - c.Rank()
		if sum != want {
			return fmt.Errorf("rank %d sum %d, want %d", c.Rank(), sum, want)
		}
		return nil
	}, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestPerPairFIFO(t *testing.T) {
	const n = 500
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				buf := make([]byte, 4)
				binary.LittleEndian.PutUint32(buf, uint32(i))
				c.Send(1, 0, buf)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			m := c.Recv()
			got := binary.LittleEndian.Uint32(m.Data)
			if got != uint32(i) {
				return fmt.Errorf("out of order: got %d at position %d", got, i)
			}
		}
		return nil
	}, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestPerPairFIFOUnderPerturbation holds two senders' streams to per-pair
// FIFO under two perturbation seeds, and the seeds to their purpose: with
// every message queued before the receiver starts (the barrier), the
// cross-sender order is the seed's alone, and two seeds must not agree on it.
func TestPerPairFIFOUnderPerturbation(t *testing.T) {
	const n = 200
	orders := map[uint64]string{}
	for _, seed := range []uint64{12345, 54321} {
		var order []byte
		err := Run(3, func(c *Comm) error {
			if c.Rank() != 2 {
				for i := 0; i < n; i++ {
					buf := make([]byte, 8)
					binary.LittleEndian.PutUint64(buf, uint64(c.Rank())<<32|uint64(i))
					c.Send(2, 0, buf)
				}
				c.Barrier()
				return nil
			}
			c.Barrier()
			nextFrom := map[int]uint64{}
			for i := 0; i < 2*n; i++ {
				m := c.Recv()
				v := binary.LittleEndian.Uint64(m.Data)
				from, seq := int(v>>32), v&0xffffffff
				if from != m.From {
					return fmt.Errorf("sender mismatch: %d vs %d", from, m.From)
				}
				if seq != nextFrom[from] {
					return fmt.Errorf("from %d: seq %d, want %d", from, seq, nextFrom[from])
				}
				nextFrom[from]++
				order = append(order, byte(from))
			}
			return nil
		}, WithPerturbation(seed), WithDeadline(10*time.Second))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		orders[seed] = string(order)
	}
	if orders[12345] == orders[54321] {
		t.Fatal("two perturbation seeds drained the senders in the same order")
	}
}

func TestExactlyOnceDelivery(t *testing.T) {
	const p, per = 6, 100
	var delivered int64
	err := Run(p, func(c *Comm) error {
		for i := 0; i < per; i++ {
			to := (c.Rank() + 1 + i%(p-1)) % p
			c.Send(to, 7, []byte{byte(i)})
		}
		c.Barrier() // all sends issued
		for {
			_, ok := c.TryRecv()
			if !ok {
				break
			}
			atomic.AddInt64(&delivered, 1)
		}
		// Everything was already in the mailbox before the drain because
		// sends are synchronous enqueues and the barrier ordered them.
		return nil
	}, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if delivered != p*per {
		t.Fatalf("delivered %d, want %d", delivered, p*per)
	}
}

// TestMailboxPopReleasesSlots is the white-box check on the two sides of a
// mailbox: a long request/answer stream keeps reusing one small array per
// side — each refill hands the emptied owner-side array back to the sender —
// and no slot on either side keeps a consumed payload reachable.
func TestMailboxPopReleasesSlots(t *testing.T) {
	w, err := NewWorld(2, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		other := 1 - c.Rank()
		for i := 0; i < 100000; i++ {
			if c.Rank() == 0 {
				c.Send(other, 1, make([]byte, 64))
				c.Recv()
			} else {
				c.Recv()
				c.Send(other, 1, make([]byte, 64))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		mb := w.boxes[r]
		in, out := mb.in[1-r], mb.out[1-r].msgs
		if len(in) != 0 || len(out) != 0 || cap(in)+cap(out) == 0 || cap(in) > 4 || cap(out) > 4 {
			t.Errorf("rank %d: sender side len %d cap %d, owner side len %d cap %d; want both empty over small reused arrays",
				r, len(in), cap(in), len(out), cap(out))
		}
		for side, slots := range map[string][]Message{"sender": in[:cap(in)], "owner": out[:cap(out)]} {
			for i, m := range slots {
				if m.Data != nil {
					t.Errorf("rank %d: %s-side slot %d still holds its payload", r, side, i)
				}
			}
		}
	}
}

func TestTryRecvEmpty(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if _, ok := c.TryRecv(); ok {
			return fmt.Errorf("rank %d: TryRecv returned a phantom message", c.Rank())
		}
		return nil
	}, WithDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	const p = 8
	var phase1 int64
	err := Run(p, func(c *Comm) error {
		atomic.AddInt64(&phase1, 1)
		c.Barrier()
		if got := atomic.LoadInt64(&phase1); got != p {
			return fmt.Errorf("after barrier only %d ranks in phase 1", got)
		}
		return nil
	}, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceOps(t *testing.T) {
	const p = 5
	err := Run(p, func(c *Comm) error {
		r := int64(c.Rank())
		if got := c.AllreduceInt64(r, OpSum); got != 10 {
			return fmt.Errorf("sum = %d, want 10", got)
		}
		if got := c.AllreduceInt64(r, OpMax); got != 4 {
			return fmt.Errorf("max = %d, want 4", got)
		}
		f := c.AllreduceFloat64(float64(c.Rank())+0.5, OpSum)
		if f != 12.5 {
			return fmt.Errorf("fsum = %g, want 12.5", f)
		}
		return nil
	}, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceRepeated(t *testing.T) {
	// Back-to-back collectives must not corrupt each other (slot reuse).
	err := Run(4, func(c *Comm) error {
		for i := 0; i < 50; i++ {
			want := int64(4 * i)
			if got := c.AllreduceInt64(int64(i), OpSum); got != want {
				return fmt.Errorf("iter %d: sum = %d, want %d", i, got, want)
			}
		}
		return nil
	}, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		all := c.Allgather([]byte{byte(c.Rank() * 10)})
		for r, data := range all {
			if len(data) != 1 || data[0] != byte(r*10) {
				return fmt.Errorf("slot %d = %v", r, data)
			}
		}
		return nil
	}, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRankErrorPropagates(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "mpi: rank 1: boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestRankPanicCaptured(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not captured")
	}
}

func TestDeadlineDetectsDeadlock(t *testing.T) {
	start := time.Now()
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv() // nobody ever sends
		}
		return nil
	}, WithDeadline(200*time.Millisecond))
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline fired far too late")
	}
}

func TestInvalidWorldSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("accepted size 0")
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		c.Send(5, 0, nil)
		return nil
	})
	if err == nil {
		t.Fatal("send to invalid rank did not fail")
	}
}

func TestStatsCounting(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 100))
			c.Send(1, 0, make([]byte, 50))
		} else {
			c.Recv()
			c.Recv()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s0 := w.RankStats(0)
	s1 := w.RankStats(1)
	if s0.SentMsgs != 2 || s0.SentBytes != 150 {
		t.Fatalf("rank 0 stats %v", s0)
	}
	if s1.RecvMsgs != 2 || s1.RecvBytes != 150 {
		t.Fatalf("rank 1 stats %v", s1)
	}
	tot := w.TotalStats()
	if tot.SentMsgs != 2 || tot.RecvMsgs != 2 {
		t.Fatalf("total stats %v", tot)
	}
	if got := s0.Sub(Stats{SentMsgs: 1}); got.SentMsgs != 1 {
		t.Fatalf("Sub = %v", got)
	}
}

func TestBundlerAggregates(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	const recs = 100
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			b := NewBundler(c, 9, 8, 0)
			for i := 0; i < recs; i++ {
				rec := make([]byte, 8)
				binary.LittleEndian.PutUint64(rec, uint64(i))
				b.Add(1, rec)
			}
			if b.Flushes != 0 {
				return fmt.Errorf("%d flushes before Flush: records did not aggregate", b.Flushes)
			}
			b.Flush()
			if b.Flushes != 1 {
				return fmt.Errorf("flushes = %d, want 1 (all records fit one bundle)", b.Flushes)
			}
			return nil
		}
		m := c.Recv()
		rs := Records(m.Data, 8)
		if len(rs) != recs {
			return fmt.Errorf("got %d records, want %d", len(rs), recs)
		}
		for i, r := range rs {
			if binary.LittleEndian.Uint64(r) != uint64(i) {
				return fmt.Errorf("record %d corrupted", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One runtime message total, versus recs without bundling.
	if s := w.RankStats(0); s.SentMsgs != 1 {
		t.Fatalf("sent %d messages, want 1", s.SentMsgs)
	}
}

func TestBundlerAutoFlushAtCapacity(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			b := NewBundler(c, 9, 8, 16) // two records per bundle
			for i := 0; i < 5; i++ {
				b.Add(1, make([]byte, 8))
			}
			b.Flush()
			if b.Flushes != 3 { // 2+2+1
				return fmt.Errorf("flushes = %d, want 3", b.Flushes)
			}
			return nil
		}
		total := 0
		for total < 5 {
			m := c.Recv()
			total += len(Records(m.Data, 8))
		}
		return nil
	}, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestBundlerUnbundledMode(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			b := NewBundler(c, 9, 8, 8) // bundling disabled
			for i := 0; i < 10; i++ {
				b.Add(1, make([]byte, 8))
			}
			b.Flush()
			return nil
		}
		for i := 0; i < 10; i++ {
			c.Recv()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.RankStats(0); s.SentMsgs != 10 {
		t.Fatalf("unbundled mode sent %d messages, want 10", s.SentMsgs)
	}
}

// TestBundlerShortRecords: records may be shorter than the size the bundler
// is built for; a bundle ships as soon as another maximal record might not
// fit, so a cap of one maximal record (or less) still means one record per
// message, whatever the records' actual sizes.
func TestBundlerShortRecords(t *testing.T) {
	for _, tc := range []struct {
		maxBytes, records int
		wantMsgs          int64
	}{
		{0, 1000, 1},     // 3000 bytes under the 64 KiB default
		{17, 1000, 1000}, // bundling off
		{5, 1000, 1000},  // below one maximal record: the same
		{40, 1000, 125},  // ships once it holds more than 40 - 17 bytes: at 8 records of 3
	} {
		w, err := NewWorld(2, WithDeadline(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				b := NewBundler(c, 9, 17, tc.maxBytes)
				for i := 0; i < tc.records; i++ {
					b.Add(1, []byte{byte(i), byte(i >> 8), 0xee})
				}
				b.Flush()
				if b.Records != int64(tc.records) {
					return fmt.Errorf("Records = %d, want %d", b.Records, tc.records)
				}
				return nil
			}
			for got := 0; got < 3*tc.records; {
				m := c.Recv()
				if len(m.Data) == 0 || len(m.Data)%3 != 0 {
					return fmt.Errorf("bundle of %d bytes splits a record", len(m.Data))
				}
				for off := 0; off < len(m.Data); off += 3 {
					if i := got / 3; m.Data[off] != byte(i) || m.Data[off+1] != byte(i>>8) || m.Data[off+2] != 0xee {
						return fmt.Errorf("record %d corrupted or out of order", i)
					}
					got += 3
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("maxBytes %d: %v", tc.maxBytes, err)
		}
		if got := w.RankStats(0).SentMsgs; got != tc.wantMsgs {
			t.Errorf("maxBytes %d: %d messages for %d records, want %d", tc.maxBytes, got, tc.records, tc.wantMsgs)
		}
	}
	for name, rec := range map[string][]byte{"empty": {}, "oversize": make([]byte, 18)} {
		err := Run(1, func(c *Comm) error {
			NewBundler(c, 9, 17, 0).Add(0, rec)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "want 1 to 17") {
			t.Errorf("%s record: err = %v", name, err)
		}
	}
}

// TestBundlerRecycleBounded: a rank that receives far more than it sends —
// FIAB / FIAC coloring recycles every inbound copy into a bundler that never
// ships anything, and so did the unbundled matching run with its tens of
// thousands of one-record messages — keeps at most one spare buffer per
// destination, not every buffer it was ever handed.
func TestBundlerRecycleBounded(t *testing.T) {
	const p, perPeer = 4, 3400 // 10200 messages into every rank
	err := Run(p, func(c *Comm) error {
		b := NewBundler(c, 9, 10, 0)
		for i := 0; i < perPeer; i++ {
			for to := 0; to < p; to++ {
				if to != c.Rank() {
					c.Send(to, 9, make([]byte, 12)) // receivers own message data
				}
			}
		}
		for got := 0; got < perPeer*(p-1); got++ {
			b.Recycle(c.Recv().Data)
			if len(b.free) > p {
				return fmt.Errorf("free list holds %d buffers after %d messages, more than one per destination (%d)", len(b.free), got+1, p)
			}
		}
		if len(b.free) != p {
			return fmt.Errorf("free list holds %d buffers, want the %d it can use", len(b.free), p)
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecordsRejectsMisalignedBundle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on misaligned bundle")
		}
	}()
	Records(make([]byte, 9), 4)
}

func TestManyRanksStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const p = 64
	err := Run(p, func(c *Comm) error {
		// Pass an incrementing token around the ring for p full circuits
		// (p*p hops); the token starts at rank 1 with value 0, every relay
		// adds 1, and the final hop lands back on rank 0 carrying p*p - 1.
		relay := func(v uint64) {
			buf := make([]byte, 8)
			binary.LittleEndian.PutUint64(buf, v+1)
			c.Send((c.Rank()+1)%p, 0, buf)
		}
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 8))
			for i := 0; i < p; i++ {
				m := c.Recv()
				v := binary.LittleEndian.Uint64(m.Data)
				if i < p-1 {
					relay(v)
				} else if v != p*p-1 {
					return fmt.Errorf("final token %d, want %d", v, p*p-1)
				}
			}
			return nil
		}
		for i := 0; i < p; i++ {
			m := c.Recv()
			relay(binary.LittleEndian.Uint64(m.Data))
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestDrainTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		other := 1 - c.Rank()
		c.Send(other, 5, []byte{1})
		c.Send(other, 5, []byte{2})
		c.Send(other, 6, []byte{3})
		c.Barrier() // all sends delivered to mailboxes
		if n := c.DrainTag(5); n != 2 {
			return fmt.Errorf("drained %d tag-5 messages, want 2", n)
		}
		m := c.Recv() // the tag-6 message must survive
		if m.Tag != 6 || m.Data[0] != 3 {
			return fmt.Errorf("surviving message %v", m)
		}
		if n := c.DrainTag(5); n != 0 {
			return fmt.Errorf("second drain found %d", n)
		}
		return nil
	}, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeBasics(t *testing.T) {
	vt := VirtualTime{Alpha: 1, Beta: 0.01, GammaVertex: 0.1, GammaEdge: 0.2, Sync: 0.5}
	w, err := NewWorld(2, WithVirtualTime(vt), WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.ChargeOps(10, 5) // 10*0.2 + 5*0.1 = 2.5
			if got := c.vclock; got != 2.5 {
				return fmt.Errorf("vtime after charge = %g, want 2.5", got)
			}
			c.Send(1, 0, make([]byte, 100)) // arrives at 2.5 + 1 + 1 = 4.5
			return nil
		}
		m := c.Recv()
		if m.ArriveV != 4.5 {
			return fmt.Errorf("arrival vtime = %g, want 4.5", m.ArriveV)
		}
		if got := c.vclock; got != 4.5 {
			return fmt.Errorf("receiver vtime = %g, want 4.5", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.MaxVirtualTime(); got != 4.5 {
		t.Fatalf("makespan = %g, want 4.5", got)
	}
}

func TestVirtualTimeBarrierSync(t *testing.T) {
	vt := VirtualTime{Sync: 2}
	w, _ := NewWorld(3, WithVirtualTime(vt), WithDeadline(10*time.Second))
	err := w.Run(func(c *Comm) error {
		c.vclock = float64(c.Rank()) * 10 // clocks 0, 10, 20
		c.Barrier()
		if got := c.vclock; got != 22 { // max + sync
			return fmt.Errorf("rank %d vtime %g, want 22", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeDisabledIsFree(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		c.ChargeOps(1000, 1000)
		c.Send(1-c.Rank(), 0, []byte{1})
		m := c.Recv()
		if m.ArriveV != 0 || c.vclock != 0 {
			return fmt.Errorf("virtual time leaked while disabled")
		}
		return nil
	}, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeIdleWaitIsFree(t *testing.T) {
	// A rank blocked in Recv accrues no virtual time beyond the arrival.
	vt := VirtualTime{Alpha: 3}
	w, _ := NewWorld(2, WithVirtualTime(vt), WithDeadline(10*time.Second))
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(50 * time.Millisecond) // real time, not virtual
			c.Send(1, 0, nil)
			return nil
		}
		m := c.Recv()
		if m.ArriveV != 3 || c.vclock != 3 {
			return fmt.Errorf("vtime %g, want 3 (real waiting must not count)", c.vclock)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDrainTagStatsMailboxPath drains messages straight from the mailbox
// (never stashed) and checks the same accounting.
func TestDrainTagStatsMailboxPath(t *testing.T) {
	w, err := NewWorld(2, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		other := 1 - c.Rank()
		for i := 0; i < 3; i++ {
			c.Send(other, 5, make([]byte, 10))
		}
		c.Barrier()
		if n := c.DrainTag(5); n != 3 {
			return fmt.Errorf("drained %d, want 3", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := w.TotalStats()
	if total.SentMsgs != 6 || total.RecvMsgs != 6 || total.SentBytes != 60 || total.RecvBytes != 60 {
		t.Fatalf("stats %v, want 6 msgs / 60 B each way", total)
	}
}

// TestDeadlineReportsStuckRanks checks the watchdog names exactly the ranks
// that were still running.
func TestDeadlineReportsStuckRanks(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 1 || c.Rank() == 3 {
			c.Recv() // nobody ever sends
		}
		return nil
	}, WithDeadline(200*time.Millisecond))
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !strings.Contains(err.Error(), "[1 3]") {
		t.Fatalf("error does not name ranks 1 and 3: %v", err)
	}
}

// TestDeadlineReportsFirstFailure checks that when one rank fails and the
// rest consequently hang, the watchdog surfaces the root-cause error.
func TestDeadlineReportsFirstFailure(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return fmt.Errorf("rank 0 exploded")
		}
		c.Recv() // waits forever: rank 0 died before sending
		return nil
	}, WithDeadline(200*time.Millisecond))
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !strings.Contains(err.Error(), "rank 0 exploded") {
		t.Fatalf("error does not carry the first failure: %v", err)
	}
	if !strings.Contains(err.Error(), "[1]") {
		t.Fatalf("error does not name the stuck rank: %v", err)
	}
}

// TestWorldRunTwiceFails checks the reuse guard: mailboxes and barriers are
// in their post-run state, so a second Run must be refused, not misbehave.
func TestWorldRunTwiceFails(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *Comm) error { return nil }); err == nil {
		t.Fatal("second Run succeeded; want an error")
	}
}

// TestNegativeTagReserved checks that user sends cannot collide with the
// runtime's reserved internal tags.
func TestNegativeTagReserved(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, -1, nil)
		}
		return nil
	}, WithDeadline(5*time.Second))
	if err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("negative-tag send not rejected: %v", err)
	}
}

// TestBundlerRecycleReuses checks the free-list: a recycled inbound buffer
// backs a later outbound bundle instead of a fresh allocation.
func TestBundlerRecycleReuses(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		b := NewBundler(c, 3, 8, 64)
		donated := make([]byte, 0, 128)
		b.Recycle(donated[:0])
		rec := make([]byte, 8)
		b.Add(0, rec) // self-destined; must reuse the donated array
		if len(b.bufs[0]) != 8 || cap(b.bufs[0]) != 128 {
			return fmt.Errorf("buffer len %d cap %d; donated array not reused", len(b.bufs[0]), cap(b.bufs[0]))
		}
		b.Recycle(make([]byte, 4)) // below record size: must be ignored
		if len(b.free) != 0 {
			return fmt.Errorf("undersized buffer kept on free list")
		}
		b.Flush()
		m := c.Recv()
		if len(m.Data) != 8 {
			return fmt.Errorf("bundle of %d bytes", len(m.Data))
		}
		return nil
	}, WithDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}
