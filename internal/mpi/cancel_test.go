package mpi

import (
	"errors"
	"fmt"
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
// every rank unwound from its wait. Over tcp a collective waits in take, not
// in the barrier: one rank in Allgather, its peer in Recv.
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

// TestCanceledWorldResets cancels a run that leaves a barrier generation half
// entered and messages undelivered, then checks that Reset succeeds and that
// the next runs — barriers, collectives and point-to-point — behave and count
// exactly as on a fresh world.
func TestCanceledWorldResets(t *testing.T) {
	const p = 4
	w, err := NewWorld(p, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	done := parkAll(t, w, func(c *Comm, arrive func()) error {
		c.Send((c.Rank()+1)%p, 3, []byte("stale"))
		arrive()
		if c.Rank() == 0 {
			c.Recv() // tag 3 from rank 3 arrives; then nothing more does
			c.Recv()
		}
		c.Barrier() // ranks 1..3 park here
		return nil
	})
	awaitCanceled(t, []*World{w}, []<-chan error{done})
	stale, err := w.Reset()
	if err != nil {
		t.Fatalf("Reset after a canceled run: %v", err)
	}
	if stale != p-1 {
		t.Fatalf("Reset drained %d stale messages, want %d", stale, p-1)
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
