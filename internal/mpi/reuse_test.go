package mpi

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi/transport"
	"repro/internal/obs"
)

// exchange is a deterministic all-to-all: each rank sends its id to every
// other rank and checks the received sum. Used to compare a reused world's
// behavior against a fresh one.
func exchange(p int) func(c *Comm) error {
	return func(c *Comm) error {
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
			sum += int(binary.LittleEndian.Uint64(m.Data))
		}
		if want := p*(p-1)/2 - c.Rank(); sum != want {
			return fmt.Errorf("rank %d sum %d, want %d", c.Rank(), sum, want)
		}
		return nil
	}
}

// TestResetReuse is the world-pool contract: after Reset, a world must be
// indistinguishable from a fresh one — stale unreceived messages drained,
// per-rank stats zeroed, and a second run producing exactly the traffic a
// fresh world would.
func TestResetReuse(t *testing.T) {
	const p = 4
	w, err := NewWorld(p, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// The first runs leave garbage behind on purpose: every rank posts one
	// message to its neighbor on a tag nobody receives. Behind a Barrier
	// the message is no longer in the mailbox: the Barrier pops the
	// sender's queue up to the sender's barrier message, which per-pair FIFO
	// puts after it, so every rank has stashed its stale message (and
	// counted it as received) and Reset drains nothing. With no Barrier all
	// p are still in the mailboxes. The fenced run goes last, so that the
	// stats checked below were the runtime family's too.
	for _, run := range []struct {
		name            string
		fenced          bool
		recvMsgs, stale int
	}{
		{"unfenced", false, 0, p},
		{"behind a Barrier", true, p, 0},
	} {
		leaky := func(c *Comm) error {
			c.Send((c.Rank()+1)%p, 99, []byte("stale"))
			if run.fenced {
				c.Barrier()
			}
			return nil
		}
		if err := w.Run(leaky); err != nil {
			t.Fatal(err)
		}
		if got := w.TotalStats(); got.SentMsgs != p || got.RecvMsgs != int64(run.recvMsgs) {
			t.Fatalf("leaky run %s sent %d msgs and received %d, want %d and %d", run.name, got.SentMsgs, got.RecvMsgs, p, run.recvMsgs)
		}
		stale, err := w.Reset()
		if err != nil {
			t.Fatal(err)
		}
		if stale != run.stale {
			t.Fatalf("Reset after the leaky run %s drained %d stale messages, want %d", run.name, stale, run.stale)
		}
	}
	if got := w.TotalStats(); got.SentMsgs != 0 || got.RecvMsgs != 0 || got.SentBytes != 0 || got.RecvBytes != 0 {
		t.Fatalf("stats not reset: %+v", got)
	}
	for r := 0; r < p; r++ {
		s := w.RankStats(r)
		if s.SentMsgs != 0 || s.ByFamily[FamilyRuntime] != (FamilyStats{}) {
			t.Fatalf("rank %d stats survived Reset: %+v", r, s)
		}
	}

	// Second run on the reused world: no stale message may surface, and the
	// traffic totals must match a fresh world running the same function. The
	// barrier separates the staleness probe from the exchange — before it, the
	// only possible message is a leaked one.
	reused := func(c *Comm) error {
		if m, ok := c.TryRecv(); ok {
			return fmt.Errorf("rank %d saw stale message tag %d from %d", c.Rank(), m.Tag, m.From)
		}
		c.Barrier()
		return exchange(p)(c)
	}
	if err := w.Run(reused); err != nil {
		t.Fatal(err)
	}
	got := w.TotalStats()

	fresh, err := NewWorld(p, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Run(reused); err != nil {
		t.Fatal(err)
	}
	if want := fresh.TotalStats(); got != want {
		t.Fatalf("reused world stats diverge from fresh:\n reused: %+v\n fresh:  %+v", got, want)
	}
}

// TestResetRepeatedRuns reuses one world across many runs — the service
// steady state — checking per-run stats isolation every time.
func TestResetRepeatedRuns(t *testing.T) {
	const p = 4
	w, err := NewWorld(p, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var want Stats
	for i := 0; i < 5; i++ {
		if i > 0 {
			stale, err := w.Reset()
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			if stale != 0 {
				t.Fatalf("run %d: %d stale messages from a clean run", i, stale)
			}
		}
		if err := w.Run(exchange(p)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		got := w.TotalStats()
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d stats drifted (leakage across Reset):\n got:  %+v\n want: %+v", i, got, want)
		}
	}
}

// TestResetKeepsKeepBytesPerWorld pins what an idle world holds: Reset
// keeps a mailbox's queue arrays only within its share of keepBytes, so a
// world keeps at most keepBytes whatever its size. One burst of about 5 MiB
// into rank 1's mailbox fits the share at 4 ranks and is dropped at 8; the
// one message every rank also sends every other leaves small arrays.
func TestResetKeepsKeepBytesPerWorld(t *testing.T) {
	const burst = 5 << 20 / messageBytes
	for _, p := range []int{4, 8} {
		w, err := NewWorld(p, WithDeadline(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				for range burst {
					c.Send(1, 1, nil)
				}
			}
			for to := range p {
				if to != c.Rank() {
					c.Send(to, 1, nil)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Reset(); err != nil {
			t.Fatal(err)
		}
		var held int64
		for r, mb := range w.boxes {
			b := mb.arrayBytes()
			if b > keepBytes/int64(p) {
				t.Fatalf("P=%d: rank %d's mailbox keeps %d bytes of arrays, over its share of %d", p, r, b, keepBytes/int64(p))
			}
			held += b
		}
		if held > keepBytes {
			t.Fatalf("P=%d: the reset world keeps %d bytes of arrays, over %d", p, held, keepBytes)
		}
		kept := w.boxes[1].arrayBytes() > burst*messageBytes
		if want := p == 4; kept != want {
			t.Fatalf("P=%d: the %d-byte burst's array kept = %v, want %v", p, burst*messageBytes, kept, want)
		}
	}
}

// TestRunTwiceWithoutReset pins the guard: a second Run without Reset must
// fail loudly instead of silently mixing two jobs' traffic.
func TestRunTwiceWithoutReset(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(c *Comm) error { return nil }
	if err := w.Run(noop); err != nil {
		t.Fatal(err)
	}
	err = w.Run(noop)
	if err == nil || !strings.Contains(err.Error(), "Reset") {
		t.Fatalf("second Run = %v, want an error mentioning Reset", err)
	}
}

// TestResetWhileRunning pins the safety check: Reset must refuse while rank
// goroutines are live (it would race with their mailbox and stats writes),
// and succeed once they have all returned.
func TestResetWhileRunning(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	ready := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) error {
			once.Do(func() { close(ready) })
			<-release
			return nil
		})
	}()
	<-ready
	if _, err := w.Reset(); err == nil || !strings.Contains(err.Error(), "running") {
		t.Fatalf("Reset during Run = %v, want a still-running error", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := w.Reset(); err != nil {
		t.Fatalf("Reset after Run returned: %v", err)
	}
}

// TestSetObserverPerRun pins the pool-tracing contract: a recycled world can
// swap observers between runs so each job gets isolated span rings and
// metrics, the swap is refused while ranks are live, and detaching (nil)
// leaves later runs unobserved.
func TestSetObserverPerRun(t *testing.T) {
	const p = 2
	w, err := NewWorld(p, WithDeadline(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	traced := func(c *Comm) error {
		tok := c.Tracer().Begin("test.phase")
		c.Barrier()
		c.Tracer().End(tok)
		return nil
	}

	obsA := obs.NewObserver(p, 64)
	if err := w.SetObserver(obsA); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(traced); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if n := len(obsA.Tracer(r).Spans()); n != 1 {
			t.Fatalf("run A: rank %d recorded %d spans, want 1", r, n)
		}
	}

	if _, err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	obsB := obs.NewObserver(p, 64)
	if err := w.SetObserver(obsB); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(traced); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if n := len(obsA.Tracer(r).Spans()); n != 1 {
			t.Fatalf("run B leaked into observer A: rank %d has %d spans", r, n)
		}
		if n := len(obsB.Tracer(r).Spans()); n != 1 {
			t.Fatalf("run B: rank %d recorded %d spans in B, want 1", r, n)
		}
	}
	if obsB.Registry().Snapshot().Gauges["mpi.world_size"] != p {
		t.Fatal("world_size gauge not published into the swapped-in registry")
	}

	// Swapping while ranks are live must be refused, like Reset.
	if _, err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	ready := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) error {
			once.Do(func() { close(ready) })
			<-release
			return nil
		})
	}()
	<-ready
	if err := w.SetObserver(nil); err == nil || !strings.Contains(err.Error(), "running") {
		t.Fatalf("SetObserver during Run = %v, want a still-running error", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Detach: the next run records nowhere.
	if _, err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.SetObserver(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(traced); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		if n := len(obsB.Tracer(r).Spans()); n != 1 {
			t.Fatalf("detached run leaked into observer B: rank %d has %d spans", r, n)
		}
	}
}

// TestResetRemoteRefused pins the scope restriction: Reset only supports
// all-local worlds — a remote transport holds peer connection state the
// reset path does not (and need not) understand.
func TestResetRemoteRefused(t *testing.T) {
	eps, err := transport.NewLocalTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*World, 2)
	for i, ep := range eps {
		w, err := NewWorld(2, WithTransport(ep), WithDeadline(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *World) { defer wg.Done(); errs[i] = w.Run(exchange(2)) }(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := worlds[0].Reset(); err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("Reset on a TCP world = %v, want a remote-transport error", err)
	}
}
