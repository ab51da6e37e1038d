package mpi

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi/transport"
)

// runOverTCP runs fn once per rank of an n-rank job in which every rank owns
// its own World over a real localhost TCP mesh — the same topology as n
// separate processes, collapsed into one test binary. It returns the per-rank
// worlds for stats inspection.
func runOverTCP(t *testing.T, n int, fn func(c *Comm) error, opts ...Option) []*World {
	t.Helper()
	eps, err := transport.NewLocalTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*World, n)
	for i, ep := range eps {
		w, err := NewWorld(n, append([]Option{WithTransport(ep), WithDeadline(30 * time.Second)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.LocalRanks(); len(got) != 1 || got[0] != i {
			t.Fatalf("world %d hosts ranks %v", i, got)
		}
		worlds[i] = w
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *World) { defer wg.Done(); errs[i] = w.Run(fn) }(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return worlds
}

func TestTCPWorldCollectives(t *testing.T) {
	const n = 4
	runOverTCP(t, n, func(c *Comm) error {
		if s := c.AllreduceInt64(int64(c.Rank()), OpSum); s != n*(n-1)/2 {
			return fmt.Errorf("sum = %d", s)
		}
		if m := c.AllreduceInt64(int64(c.Rank()), OpMax); m != n-1 {
			return fmt.Errorf("max = %d", m)
		}
		if f := c.AllreduceFloat64(float64(c.Rank())+0.5, OpSum); f != float64(n*(n-1))/2+float64(n)*0.5 {
			return fmt.Errorf("fsum = %v", f)
		}
		parts := c.Allgather([]byte{byte(c.Rank()), byte(c.Rank() * 2)})
		if len(parts) != n {
			return fmt.Errorf("allgather %d parts", len(parts))
		}
		for r, p := range parts {
			if len(p) != 2 || p[0] != byte(r) || p[1] != byte(r*2) {
				return fmt.Errorf("allgather part %d = %v", r, p)
			}
		}
		return nil
	})
}

// TestTCPPerPairFIFOOverWire drives 4 ranks over real sockets: every rank
// streams a numbered sequence to every other rank; receivers must observe
// each sender's sequence in order regardless of cross-sender interleaving.
func TestTCPPerPairFIFOOverWire(t *testing.T) {
	const n = 4
	const per = 200
	runOverTCP(t, n, func(c *Comm) error {
		for k := 0; k < per; k++ {
			for to := 0; to < n; to++ {
				if to == c.Rank() {
					continue
				}
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, uint64(k))
				c.Send(to, 7, buf)
			}
		}
		next := make([]int, n)
		for got := 0; got < (n-1)*per; got++ {
			m := c.Recv()
			if m.Tag != 7 {
				return fmt.Errorf("tag %d", m.Tag)
			}
			k := int(binary.LittleEndian.Uint64(m.Data))
			if k != next[m.From] {
				return fmt.Errorf("rank %d: from %d got seq %d, want %d", c.Rank(), m.From, k, next[m.From])
			}
			next[m.From]++
		}
		return nil
	})
}

// TestTCPBarrierIsFence checks the delivery-fence property over the wire:
// everything sent before the senders' Barrier is receivable without blocking
// after it — the invariant the matching and coloring round structure relies
// on. It also checks exact traffic balance: with all sends barrier-fenced,
// every rank's receive counters match what was addressed to it, and the
// runtime's own barrier traffic stays invisible.
func TestTCPBarrierIsFence(t *testing.T) {
	const n = 4
	const rounds = 3
	const per = 5
	worlds := runOverTCP(t, n, func(c *Comm) error {
		for round := 0; round < rounds; round++ {
			for to := 0; to < n; to++ {
				if to == c.Rank() {
					continue
				}
				for k := 0; k < per; k++ {
					c.Send(to, round, []byte{byte(round), byte(k)})
				}
			}
			c.Barrier()
			got := 0
			for {
				m, ok := c.TryRecv()
				if !ok {
					break
				}
				if int(m.Data[0]) != round {
					return fmt.Errorf("round %d: stale message from round %d", round, m.Data[0])
				}
				got++
			}
			if got != (n-1)*per {
				return fmt.Errorf("round %d: drained %d messages, want %d", round, got, (n-1)*per)
			}
			c.Barrier() // nobody starts the next round early
		}
		return nil
	})
	var total Stats
	for i, w := range worlds {
		s := w.RankStats(i)
		want := int64(rounds * (n - 1) * per)
		if s.SentMsgs != want || s.RecvMsgs != want {
			t.Fatalf("rank %d stats %v, want %d sent and received", i, s, want)
		}
		total.Add(s)
	}
	if total.SentMsgs != total.RecvMsgs || total.SentBytes != total.RecvBytes {
		t.Fatalf("global imbalance: %v", total)
	}
}

// TestTCPDrainTagOverWire exercises the Barrier+DrainTag idiom (the matching
// algorithm's cleanup) over sockets.
func TestTCPDrainTagOverWire(t *testing.T) {
	const n = 4
	runOverTCP(t, n, func(c *Comm) error {
		for to := 0; to < n; to++ {
			if to != c.Rank() {
				c.Send(to, 42, []byte{1, 2, 3})
			}
		}
		c.Barrier()
		if dropped := c.DrainTag(42); dropped != n-1 {
			return fmt.Errorf("dropped %d, want %d", dropped, n-1)
		}
		if _, ok := c.TryRecv(); ok {
			return fmt.Errorf("mailbox not empty after drain")
		}
		return nil
	})
}

// TestTCPVirtualTime checks that virtual clocks synchronize through the
// remote barrier exactly as through the shared-memory one.
func TestTCPVirtualTime(t *testing.T) {
	const n = 3
	vt := VirtualTime{Alpha: 1, Beta: 0.5, Sync: 10}
	worlds := runOverTCP(t, n, func(c *Comm) error {
		c.vclock = float64(c.Rank() * 100)
		c.Barrier()
		want := float64((n-1)*100) + vt.Sync
		if c.vclock != want {
			return fmt.Errorf("rank %d clock %v, want %v", c.Rank(), c.vclock, want)
		}
		return nil
	}, WithVirtualTime(vt))
	for i, w := range worlds {
		if got := w.RankVirtualTime(i); got != float64((n-1)*100)+vt.Sync {
			t.Fatalf("rank %d final clock %v", i, got)
		}
	}
}

// TestTCPWorldRunTwice checks the reuse guard on a transport-backed world.
func TestTCPWorldRunTwice(t *testing.T) {
	worlds := runOverTCP(t, 2, func(c *Comm) error { return nil })
	if err := worlds[0].Run(func(c *Comm) error { return nil }); err == nil {
		t.Fatal("second Run succeeded")
	}
}
