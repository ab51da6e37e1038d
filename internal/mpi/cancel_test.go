package mpi

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi/transport"
)

// cancelBound is how long a canceled world's ranks may take to unwind. Every
// rank below is parked in a wait, so Cancel's wake is all they need.
const cancelBound = 5 * time.Second

// parkAll runs fn on w in the background and returns once every rank has
// called the arrive hook it hands fn (which each rank calls just before it
// parks), with the channel Run's error arrives on.
func parkAll(t *testing.T, w *World, fn func(c *Comm, arrive func()) error) <-chan error {
	t.Helper()
	var arrived sync.WaitGroup
	arrived.Add(len(w.LocalRanks()))
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) error { return fn(c, arrived.Done) })
	}()
	arrived.Wait()
	return done
}

// awaitCanceled cancels every world and checks that each Run (whose error
// arrives on the matching done channel) unwinds within cancelBound with
// ErrCanceled.
func awaitCanceled(t *testing.T, worlds []*World, dones []<-chan error) {
	t.Helper()
	// Most likely the ranks are asleep in their waits after this, which is
	// the case under test; a rank that is not yet sees the signal before it
	// sleeps, and the checks below hold either way.
	time.Sleep(20 * time.Millisecond)
	for _, w := range worlds {
		w.Cancel()
	}
	limit := time.After(cancelBound)
	for i, done := range dones {
		select {
		case err := <-done:
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("world %d: Run after Cancel = %v, want ErrCanceled", i, err)
			}
		case <-limit:
			t.Fatalf("world %d: ranks still running %v after Cancel", i, cancelBound)
		}
	}
}

// TestCancelWakesBlockedRanks parks one rank in Recv, one in Barrier and two
// inside a collective, and cancels: Run must return ErrCanceled, which means
// every rank unwound from its wait — a collective's is take's, like Recv's.
// Over tcp one rank waits in Allgather, its peer in Recv.
func TestCancelWakesBlockedRanks(t *testing.T) {
	t.Run("inproc", func(t *testing.T) {
		w, err := NewWorld(4)
		if err != nil {
			t.Fatal(err)
		}
		done := parkAll(t, w, func(c *Comm, arrive func()) error {
			arrive()
			switch c.Rank() {
			case 0:
				c.Recv() // nobody sends
			case 1:
				c.Barrier() // rank 0 never arrives
			default:
				c.AllreduceInt64(1, OpSum)
			}
			return fmt.Errorf("rank %d left its wait", c.Rank())
		})
		awaitCanceled(t, []*World{w}, []<-chan error{done})
	})
	t.Run("tcp", func(t *testing.T) {
		eps, err := transport.NewLocalTCPCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		dones := make([]<-chan error, 2)
		worlds := make([]*World, 2)
		for i, ep := range eps {
			if worlds[i], err = NewWorld(2, WithTransport(ep)); err != nil {
				t.Fatal(err)
			}
		}
		// The tcp worlds start in rendezvous with each other, so start both
		// before waiting on either.
		var started sync.WaitGroup
		for i, w := range worlds {
			started.Add(1)
			go func(i int, w *World) {
				defer started.Done()
				dones[i] = parkAll(t, w, func(c *Comm, arrive func()) error {
					arrive()
					if c.Rank() == 0 {
						c.Allgather([]byte{1}) // rank 1 never contributes
					} else {
						c.Recv() // stashes rank 0's contribution, waits on
					}
					return fmt.Errorf("rank %d left its wait", c.Rank())
				})
			}(i, w)
		}
		started.Wait()
		awaitCanceled(t, worlds, dones)
	})
}

// TestCancelWakesExchange parks rank 0 in a NeighborExchange whose peer never
// exchanges — rank 1 waits in Recv, which stashes rank 0's exchange message —
// inproc and over tcp, and cancels: both must unwind with ErrCanceled.
func TestCancelWakesExchange(t *testing.T) {
	cancelParkedPair(t, func(c *Comm) {
		if c.Rank() == 0 {
			c.NeighborExchange(TagColorBase, []int{1}, [][]byte{{1}})
		} else {
			c.Recv()
		}
	})
}

// TestCancelWakesGather parks rank 0 in a Gather that rank 1 never joins —
// rank 1 waits in Recv — inproc and over tcp, and cancels: both must unwind
// with ErrCanceled.
func TestCancelWakesGather(t *testing.T) {
	cancelParkedPair(t, func(c *Comm) {
		if c.Rank() == 0 {
			c.Gather([]byte{1})
		} else {
			c.Recv()
		}
	})
}

// cancelParkedPair runs wait on both ranks of a 2-rank job, inproc and over
// tcp, and cancels once both are parked in it: each must unwind with
// ErrCanceled.
func cancelParkedPair(t *testing.T, wait func(c *Comm)) {
	park := func(c *Comm, arrive func()) error {
		arrive()
		wait(c)
		return fmt.Errorf("rank %d left its wait", c.Rank())
	}
	t.Run("inproc", func(t *testing.T) {
		w, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		awaitCanceled(t, []*World{w}, []<-chan error{parkAll(t, w, park)})
	})
	t.Run("tcp", func(t *testing.T) {
		eps, err := transport.NewLocalTCPCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		dones := make([]<-chan error, 2)
		worlds := make([]*World, 2)
		for i, ep := range eps {
			if worlds[i], err = NewWorld(2, WithTransport(ep)); err != nil {
				t.Fatal(err)
			}
		}
		var started sync.WaitGroup
		for i, w := range worlds {
			started.Add(1)
			go func(i int, w *World) {
				defer started.Done()
				dones[i] = parkAll(t, w, park)
			}(i, w)
		}
		started.Wait()
		awaitCanceled(t, worlds, dones)
	})
}

// TestCancelBeforeRun pins that the signal holds until Reset: a Run on a
// canceled world runs no rank and returns ErrCanceled.
func TestCancelBeforeRun(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	w.Cancel()
	ran := false
	if err := w.Run(func(c *Comm) error { ran = true; return nil }); !errors.Is(err, ErrCanceled) || ran {
		t.Fatalf("Run on a canceled world = %v (rank ran: %v), want ErrCanceled and no rank", err, ran)
	}
	if _, err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *Comm) error { return c.Err() }); err != nil {
		t.Fatalf("Run after Reset = %v, want the signal cleared", err)
	}
}

// TestCanceledWorldResets cancels a run that leaves a barrier half entered
// and messages undelivered, then checks that Reset succeeds and drains an
// exact count, and that the next runs — barriers, collectives and
// point-to-point — behave and count exactly as on a fresh world.
func TestCanceledWorldResets(t *testing.T) {
	const p = 4
	w, err := NewWorld(p, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	done := parkAll(t, w, func(c *Comm, arrive func()) error {
		c.Send((c.Rank()+1)%p, 3, []byte("stale"))
		if c.Rank() != 0 {
			arrive()
			c.Barrier() // ranks 1..3 park here, waiting for rank 0
			return nil
		}
		c.Recv() // tag 3 from rank 3
		// Park only once every peer's barrier message is in the stash, so
		// that what the mailboxes hold at Reset does not depend on when the
		// cancel comes.
		for len(c.stash) < p-1 {
			c.TryRecv()
			runtime.Gosched()
		}
		arrive()
		c.Recv() // nothing more arrives
		return nil
	})
	awaitCanceled(t, []*World{w}, []<-chan error{done})
	stale, err := w.Reset()
	if err != nil {
		t.Fatalf("Reset after a canceled run: %v", err)
	}
	// Rank 0's mailbox is empty. Each parked rank sent its barrier message
	// to every peer before it waited for rank 0's, and takes from rank 0's
	// queue only — popping rank 0's stale message to rank 1 into the stash
	// on the way. So each of the p-1 parked ranks holds the barrier
	// messages of the other p-2, and ranks 2..p-1 also their predecessor's
	// stale message: (p-1)(p-2) + (p-2) = p(p-2).
	if want := p * (p - 2); stale != want {
		t.Fatalf("Reset drained %d stale messages, want %d", stale, want)
	}
	next := func(c *Comm) error {
		if m, ok := c.TryRecv(); ok {
			return fmt.Errorf("rank %d saw stale message tag %d from %d", c.Rank(), m.Tag, m.From)
		}
		if err := c.Err(); err != nil {
			return err
		}
		c.Barrier()
		if got := c.AllreduceInt64(int64(c.Rank()), OpSum); got != p*(p-1)/2 {
			return fmt.Errorf("rank %d: allreduce %d, want %d", c.Rank(), got, p*(p-1)/2)
		}
		if got := c.Allgather([]byte{byte(c.Rank())}); len(got) != p || got[p-1][0] != p-1 {
			return fmt.Errorf("rank %d: allgather %v", c.Rank(), got)
		}
		return exchange(p)(c)
	}
	for run := 0; run < 3; run++ {
		if run > 0 {
			if _, err := w.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Run(next); err != nil {
			t.Fatalf("run %d after the canceled one: %v", run, err)
		}
		fresh, err := NewWorld(p, WithDeadline(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Run(next); err != nil {
			t.Fatal(err)
		}
		if got, want := w.TotalStats(), fresh.TotalStats(); got != want {
			t.Fatalf("run %d: reused world stats diverge from fresh:\n reused: %+v\n fresh:  %+v", run, got, want)
		}
	}
}

// TestDeadlineCancelsStuckRanks pins what the watchdog does besides
// reporting: it cancels, so the ranks it names unwind and the world resets.
func TestDeadlineCancelsStuckRanks(t *testing.T) {
	w, err := NewWorld(3, WithDeadline(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() > 0 {
			c.Barrier() // rank 0 never arrives
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "[1 2]") {
		t.Fatalf("Run = %v, want a deadline error naming ranks 1 and 2", err)
	}
	limit := time.Now().Add(cancelBound)
	for {
		if _, err = w.Reset(); err == nil {
			break
		}
		if time.Now().After(limit) {
			t.Fatalf("Reset still refused %v after the deadline: %v", cancelBound, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := w.Run(exchange(3)); err != nil {
		t.Fatal(err)
	}
}

// TestFailedRankCancelsPeers: a rank that fails while its peers wait — one
// in Recv, one in Barrier, one in a collective — cancels the world, so Run
// returns without a deadline or a Cancel from outside, and it returns the
// failure, not the ErrCanceled the others unwind with. The world then resets
// and runs.
func TestFailedRankCancelsPeers(t *testing.T) {
	boom := errors.New("boom")
	for _, panics := range []bool{false, true} {
		t.Run(fmt.Sprint("panic=", panics), func(t *testing.T) {
			w, err := NewWorld(4)
			if err != nil {
				t.Fatal(err)
			}
			var parked sync.WaitGroup
			parked.Add(3)
			done := make(chan error, 1)
			go func() {
				done <- w.Run(func(c *Comm) error {
					switch c.Rank() {
					case 0:
						parked.Wait()
						time.Sleep(20 * time.Millisecond) // most likely asleep in their waits now
						if panics {
							panic(boom)
						}
						return boom
					case 1:
						parked.Done()
						c.Recv() // nobody sends
					case 2:
						parked.Done()
						c.Barrier() // rank 0 never arrives
					default:
						parked.Done()
						c.AllreduceInt64(1, OpSum)
					}
					return fmt.Errorf("rank %d left its wait", c.Rank())
				})
			}()
			select {
			case err := <-done:
				if errors.Is(err, ErrCanceled) || !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "boom") {
					t.Fatalf("Run = %v, want rank 0's failure", err)
				}
				if !panics && !errors.Is(err, boom) {
					t.Fatalf("Run = %v, want it to wrap rank 0's error", err)
				}
			case <-time.After(cancelBound):
				t.Fatalf("Run still waiting %v after rank 0 failed: the failure did not cancel its peers", cancelBound)
			}
			if _, err := w.Reset(); err != nil {
				t.Fatal(err)
			}
			if err := w.Run(exchange(4)); err != nil {
				t.Fatalf("run after the failed one: %v", err)
			}
		})
	}
}

// TestMailboxBoundFailsCleanly floods a rank that never receives — it only
// checks the cancel signal, as a computing kernel does — past its mailbox's
// bound. The send must not block; Run must fail with ErrMailboxFull naming
// the mailbox, long before the watchdog's deadline; every goroutine must
// return; and, inproc, the reset world must then run as a fresh one does.
// Over tcp the flood crosses the wire and the receiving world fails.
func TestMailboxBoundFailsCleanly(t *testing.T) {
	const bound = 64 << 10
	payload := make([]byte, 16)
	flood := 4 * bound / (len(payload) + int(messageBytes))
	program := func(c *Comm) error {
		if c.Rank() == 0 {
			for range flood {
				c.Send(1, 1, payload)
			}
			return nil
		}
		for c.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		return c.Err()
	}
	checkFull := func(t *testing.T, err error, elapsed time.Duration) {
		t.Helper()
		var full *MailboxFullError
		if !errors.As(err, &full) || !errors.Is(err, ErrMailboxFull) {
			t.Fatalf("Run = %v, want ErrMailboxFull", err)
		}
		if full.Receiver != 1 || full.Sender != 0 || full.Limit != bound || full.Bytes > bound || full.Depth == 0 {
			t.Fatalf("%+v: want receiver 1, sender 0, a bound of %d and what it held", full, bound)
		}
		if elapsed > cancelBound {
			t.Fatalf("Run took %v: the full mailbox did not stop it", elapsed)
		}
	}
	t.Run("inproc", func(t *testing.T) {
		base := runtime.NumGoroutine()
		w, err := NewWorld(2, WithDeadline(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		bounded(w, bound)
		start := time.Now()
		err = w.Run(program)
		checkFull(t, err, time.Since(start))
		awaitGoroutines(t, base)
		if peak := w.boxes[1].peakBytes(); peak > bound || peak < bound-int64(len(payload))-messageBytes {
			t.Fatalf("rank 1's mailbox peaked at %d bytes, want just under the bound of %d", peak, bound)
		}
		if _, err := w.Reset(); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		bounded(fresh, bound)
		for _, w := range []*World{w, fresh} {
			if err := w.Run(exchange(2)); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := w.TotalStats(), fresh.TotalStats(); got != want {
			t.Fatalf("reset world's stats diverge from a fresh one's:\n reset: %+v\n fresh: %+v", got, want)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		base := runtime.NumGoroutine()
		eps, err := transport.NewLocalTCPCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, 2)
		took := make([]time.Duration, 2)
		var wg sync.WaitGroup
		for i, ep := range eps {
			w, err := NewWorld(2, WithTransport(ep), WithDeadline(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			bounded(w, bound)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start := time.Now()
				errs[i] = w.Run(program)
				took[i] = time.Since(start)
			}(i)
		}
		wg.Wait()
		checkFull(t, errs[1], took[1])
		awaitGoroutines(t, base)
	})
}

// TestMailboxBoundFollowsMemoryLimit pins where the bound comes from: a
// world made under a Go memory limit bounds each mailbox at a quarter of it,
// and with no limit, the default, at a quarter of math.MaxInt64.
func TestMailboxBoundFollowsMemoryLimit(t *testing.T) {
	prev := debug.SetMemoryLimit(-1)
	defer debug.SetMemoryLimit(prev)
	for _, limit := range []int64{8 << 30, math.MaxInt64} {
		debug.SetMemoryLimit(limit)
		w, err := NewWorld(3)
		if err != nil {
			t.Fatal(err)
		}
		for r, mb := range w.boxes {
			if mb.limit != limit/4 {
				t.Fatalf("memory limit %d: rank %d's mailbox bound %d, want %d", limit, r, mb.limit, limit/4)
			}
		}
	}
}

// bounded lowers the bound of each of w's mailboxes to limit bytes.
func bounded(w *World, limit int64) {
	for _, r := range w.local {
		w.boxes[r].limit = limit
	}
}

// awaitGoroutines waits up to cancelBound for the goroutine count to fall
// back to base.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	limit := time.Now().Add(cancelBound)
	for runtime.NumGoroutine() > base {
		if time.Now().After(limit) {
			t.Fatalf("%d goroutines %v after the run, %d before it", runtime.NumGoroutine(), cancelBound, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
