// Package mpi is the distributed-memory substrate of this repository: an
// in-process message-passing runtime with MPI-like semantics, standing in for
// the MPI/Blue Gene-P environment of the paper (the repro band notes "no MPI
// ecosystem" for Go). Each rank runs as a goroutine; ranks exchange
// asynchronous point-to-point byte messages and synchronize through a small
// set of collectives.
//
// Guarantees, chosen to match what the paper's algorithms assume of MPI:
//
//   - Reliable delivery: every sent message is received exactly once.
//   - Per-pair FIFO: messages from rank a to rank b arrive in send order.
//   - No global order: messages from different senders interleave
//     arbitrarily; a seeded perturbation mode randomizes the interleaving to
//     stress-test the asynchronous algorithms (the paper's Fig. 3.1
//     discussion — "if the two SUCCEEDED messages arrive in reverse order…" —
//     is exactly the behavior this mode exercises).
//   - Sends never block the sender (unbounded mailboxes), mirroring buffered
//     MPI_Isend as used with aggregated message bundles.
//
// Each rank's mailbox has two sides per sender. A send appends to the
// sender's queue on one side under the mailbox lock; the receiving rank pops
// from its own side with no lock, and only when that runs dry takes the lock
// once to swap every filled sender queue across whole. A stream of tiny
// messages therefore costs the receiver one lock per batch, not one per
// message.
//
// A rank waits in exactly two places, the mailbox and the cyclic barrier.
// World.Cancel wakes both, and a rank waiting in a canceled world unwinds
// with ErrCanceled; the kernels also check Comm.Err once per outer iteration
// or superstep. A canceled world is runnable again after Reset.
//
// The runtime also meters traffic: per-rank sent/received message and byte
// counters, which both the experiments and the α–β performance model
// consume. Counters are kept per message-tag family (see FamilyOf and
// docs/PROTOCOL.md), so every byte on the wire is attributed to a protocol
// phase, and the aggregates are the sum of the user families;
// World.LiveSnapshot exposes the same breakdown for live polling while a run
// is in flight.
package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi/transport"
	"repro/internal/obs"
)

// Message is one point-to-point message.
type Message struct {
	From int
	Tag  int
	Data []byte
	// ArriveV is the virtual arrival time of the message (0 unless the
	// world runs WithVirtualTime).
	ArriveV float64
}

// World owns the mailboxes and collective state for a fixed set of ranks.
//
// By default all ranks live in this process (the inproc transport). With
// WithTransport a World can instead host a subset of the ranks — typically
// one — of a multi-process job, exchanging messages over the wire; the Comm
// API is identical either way.
type World struct {
	size     int
	tr       transport.Transport
	local    []int // ranks hosted by this World instance (ascending)
	allLocal bool  // every rank is local: shared-memory fast paths apply
	boxes    []*mailbox
	stats    []rankCounters // lock-free live traffic counters, one per rank
	barrier  *barrier
	slots    [2][][]byte // the local exchange's deposit slots, see Comm.exchange
	perturb  uint64      // nonzero enables randomized cross-sender receive order
	deadline time.Duration
	vt       *VirtualTime
	obs      *obs.Observer
	// finalVTime records each rank's virtual clock (as Float64bits) when its
	// Run body returned.
	finalVTime []atomic.Uint64
	// stop is the cancel signal (see Cancel); every mailbox and the barrier
	// read it through a pointer.
	stop atomic.Bool

	runMu   sync.Mutex
	ran     bool
	running bool // a Run is in flight (or its ranks have not all returned)
}

// Option configures a World.
type Option func(*World)

// WithPerturbation makes receivers drain mailboxes in a seeded pseudo-random
// cross-sender order instead of round-robin. Per-pair FIFO is preserved.
func WithPerturbation(seed uint64) Option {
	return func(w *World) {
		if seed == 0 {
			seed = 1
		}
		w.perturb = seed
	}
}

// WithDeadline aborts Run if the ranks have not all finished within d,
// reporting which ranks were still alive — a deadlock watchdog for tests. The
// abort cancels the world (see Cancel), so ranks stuck in a wait unwind.
func WithDeadline(d time.Duration) Option {
	return func(w *World) { w.deadline = d }
}

// WithTransport runs the world over the given message transport instead of
// the default in-process one. The transport's size must match the world's;
// Run executes the rank function only for the transport's local ranks, so a
// remote backend (one rank per process) runs exactly one rank here while the
// collectives and barriers span the whole job over the wire.
func WithTransport(t transport.Transport) Option {
	return func(w *World) { w.tr = t }
}

// WithObserver attaches an observability collector: each local rank gets the
// observer's tracer for its rank (see Comm.Tracer) and the runtime's
// counters flow into the observer's registry. A nil observer is the disabled
// state and costs nothing on any hot path.
func WithObserver(o *obs.Observer) Option {
	return func(w *World) { w.obs = o }
}

// SetObserver swaps the world's observer between runs — how the serving
// layer's World pool gives every job its own span rings and registry on a
// recycled world (and detaches them again with nil when the job is done).
// Like Reset it refuses while any rank goroutine of an in-flight Run has not
// returned, since those goroutines read the observer without locks.
func (w *World) SetObserver(o *obs.Observer) error {
	w.runMu.Lock()
	defer w.runMu.Unlock()
	if w.running {
		return fmt.Errorf("mpi: SetObserver while ranks are still running")
	}
	w.attach(o)
	return nil
}

// attach makes o the world's observer; a nil observer has a nil registry,
// whose instruments are no-ops.
func (w *World) attach(o *obs.Observer) {
	w.obs = o
	o.Registry().Gauge("mpi.world_size").Set(int64(w.size))
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int, opts ...Option) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: non-positive world size %d", size)
	}
	w := &World{
		size:       size,
		boxes:      make([]*mailbox, size),
		stats:      make([]rankCounters, size),
		slots:      [2][][]byte{make([][]byte, size), make([][]byte, size)},
		finalVTime: make([]atomic.Uint64, size),
	}
	w.barrier = newBarrier(size, &w.stop)
	for _, o := range opts {
		o(w)
	}
	if w.tr == nil {
		w.tr = transport.NewInproc(size)
	}
	if w.tr.Size() != size {
		return nil, fmt.Errorf("mpi: transport spans %d ranks, world wants %d", w.tr.Size(), size)
	}
	w.local = w.tr.Local()
	w.allLocal = len(w.local) == size
	for _, r := range w.local {
		w.boxes[r] = newMailbox(size, &w.stop)
		w.tr.Register(r, w.boxes[r].sink())
	}
	w.attach(w.obs)
	return w, nil
}

// sink adapts a mailbox into the transport delivery callback.
func (mb *mailbox) sink() transport.Sink {
	return func(m transport.Msg) {
		mb.put(Message{From: m.From, Tag: m.Tag, Data: m.Payload, ArriveV: m.ArriveV})
	}
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes fn once per rank, each on its own goroutine, and waits for all
// of them. It returns the first non-nil error; a panic in a rank is captured
// and returned as an error rather than crashing the process.
func Run(size int, fn func(c *Comm) error, opts ...Option) error {
	w, err := NewWorld(size, opts...)
	if err != nil {
		return err
	}
	return w.Run(fn)
}

// Run executes fn once per local rank of w. A World is single-use by
// default: a second call returns an error immediately (mailboxes and traffic
// counters are in their post-run state). An all-local world can be returned
// to a runnable state with Reset, which is how the serving layer's World
// pool reuses rank worlds across jobs.
func (w *World) Run(fn func(c *Comm) error) error {
	w.runMu.Lock()
	ran := w.ran
	w.ran = true
	w.running = !ran
	w.runMu.Unlock()
	if ran {
		return fmt.Errorf("mpi: World.Run called twice; create a fresh World per run, or Reset this one")
	}
	if err := w.tr.Start(); err != nil {
		w.setNotRunning()
		return fmt.Errorf("mpi: transport start: %w", err)
	}
	runErr := w.run(fn)
	// Close flushes outbound queues (remote backends) and surfaces any
	// transport-level failure the ranks did not already trip over.
	if cerr := w.tr.Close(); cerr != nil && runErr == nil {
		runErr = fmt.Errorf("mpi: transport close: %w", cerr)
	}
	w.publishStats()
	return runErr
}

// publishStats copies the final per-rank traffic counters into the
// observer's registry, so an exported trace/metrics file reconciles exactly
// with RankStats/TotalStats. Only local ranks are published: in a
// multi-process job each worker reports its own rank and the shard merge
// sums them into the global totals. A per-family vector exists only for a
// family that saw traffic, so the registry stays readable.
func (w *World) publishStats() {
	if w.obs == nil {
		return
	}
	reg := w.obs.Registry()
	w.eachTraffic(func(rank int, family string, fs FamilyStats) {
		if family != "" && fs == (FamilyStats{}) {
			return
		}
		reg.Vec(obs.FamilyKey("mpi.sent_msgs", family), w.size).At(rank).Add(fs.SentMsgs)
		reg.Vec(obs.FamilyKey("mpi.sent_bytes", family), w.size).At(rank).Add(fs.SentBytes)
		reg.Vec(obs.FamilyKey("mpi.recv_msgs", family), w.size).At(rank).Add(fs.RecvMsgs)
		reg.Vec(obs.FamilyKey("mpi.recv_bytes", family), w.size).At(rank).Add(fs.RecvBytes)
	})
}

// eachTraffic is the one walk behind both the end-of-run publication and the
// live view: for every local rank, ascending, it calls fn with the rank's
// aggregate (family "") and then with each tag family's counts by name, in
// declaration order.
func (w *World) eachTraffic(fn func(rank int, family string, fs FamilyStats)) {
	for _, r := range w.local {
		s := w.stats[r].snapshot()
		fn(r, "", s.UserFamilyTotals())
		for f, fs := range s.ByFamily {
			fn(r, TagFamily(f).String(), fs)
		}
	}
}

// ErrCanceled is what a rank of a canceled world unwinds with, out of a wait
// in Comm.take or the barrier, and what the kernels return when they see the
// signal at the head of an outer iteration or superstep (Comm.Err). Run's
// error wraps it.
var ErrCanceled = errors.New("mpi: run canceled")

// Cancel stops the world's run in flight, or its next Run until Reset: it
// raises the cancel signal, then wakes every local mailbox and the barrier.
// Each wait rechecks the signal after every wake, so every rank blocked in a
// receive or a collective unwinds with ErrCanceled, and one that is
// computing stops at its kernel's next check. Once the ranks have returned,
// Reset makes the world runnable again. Safe to call from any goroutine, any
// number of times.
func (w *World) Cancel() {
	w.stop.Store(true)
	for _, r := range w.local {
		w.boxes[r].wake()
	}
	w.barrier.wake()
}

func (w *World) run(fn func(c *Comm) error) error {
	if w.stop.Load() {
		w.setNotRunning()
		return ErrCanceled
	}
	errs := make([]error, len(w.local))
	done := make([]bool, len(w.local))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, r := range w.local {
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					err := fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					if p == ErrCanceled {
						err = fmt.Errorf("mpi: rank %d: %w", rank, ErrCanceled)
					}
					mu.Lock()
					errs[i] = err
					mu.Unlock()
				}
				mu.Lock()
				done[i] = true
				mu.Unlock()
			}()
			c := &Comm{world: w, rank: rank, rng: w.perturb}
			if w.obs != nil {
				c.tr = w.obs.Tracer(rank)
				c.tr.SetStatsFunc(func() (int64, int64) {
					s := w.stats[rank].snapshot()
					return s.SentMsgs, s.SentBytes
				})
				reg := w.obs.Registry()
				c.vops = reg.Vec("mpi.vertex_ops", w.size).At(rank)
				c.eops = reg.Vec("mpi.edge_ops", w.size).At(rank)
				c.epochs = reg.Vec("mpi.barrier_epochs", w.size).At(rank)
			}
			if err := fn(c); err != nil {
				mu.Lock()
				errs[i] = fmt.Errorf("mpi: rank %d: %w", rank, err)
				mu.Unlock()
			}
			w.finalVTime[rank].Store(math.Float64bits(c.vclock))
		}(i, r)
	}
	// running flips back only when every rank goroutine has actually
	// returned — on the deadline path below, run returns while stuck ranks
	// are still live, and Reset must keep refusing until they are gone.
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		w.setNotRunning()
		close(finished)
	}()
	if w.deadline > 0 {
		select {
		case <-finished:
		case <-time.After(w.deadline):
			mu.Lock()
			stuck := []int{}
			for i, d := range done {
				if !d {
					stuck = append(stuck, w.local[i])
				}
			}
			// A rank that already failed usually explains why the others
			// are wedged; surface its error alongside the deadline.
			var firstErr error
			for _, e := range errs {
				if e != nil {
					firstErr = e
					break
				}
			}
			mu.Unlock()
			// The stuck ranks unwind in the background; Reset refuses until
			// they have.
			w.Cancel()
			if firstErr != nil {
				return fmt.Errorf("mpi: deadline exceeded; ranks still running: %v; first failure: %w", stuck, firstErr)
			}
			return fmt.Errorf("mpi: deadline exceeded; ranks still running: %v", stuck)
		}
	} else {
		<-finished
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *World) setNotRunning() {
	w.runMu.Lock()
	w.running = false
	w.runMu.Unlock()
}

// Reset returns a completed all-local World to a runnable state so the next
// Run starts from scratch: every mailbox is drained (the count of discarded
// stale messages is returned), all per-rank traffic counters and virtual
// clocks are zeroed, and the mailbox round-robin cursors rewind so a reused
// World receives in exactly the same order as a fresh one — results stay
// bit-identical across pool reuse. A canceled world is un-canceled, and the
// barrier generation its ranks abandoned is cleared; the collective slots
// need no resetting (each use overwrites them); the inproc transport's
// Start/Close are stateless.
//
// Reset fails on a World with a remote transport (its wire state is
// genuinely single-use) and on a World whose ranks have not all returned —
// they may still be mutating mailboxes (a canceled rank that has not reached
// its next wait or check yet). The serving layer's World pool calls Reset
// between jobs, canceled ones included, and drops the World on any error.
func (w *World) Reset() (stale int, err error) {
	if !w.allLocal {
		return 0, fmt.Errorf("mpi: Reset on a world with a remote transport")
	}
	w.runMu.Lock()
	defer w.runMu.Unlock()
	if w.running {
		return 0, fmt.Errorf("mpi: Reset while ranks are still running")
	}
	for _, r := range w.local {
		stale += w.boxes[r].drainAll()
		w.stats[r].reset()
		w.finalVTime[r].Store(0)
	}
	// Drop references to the last run's collective payloads.
	for i := range w.slots {
		clear(w.slots[i])
	}
	w.barrier.reset()
	w.stop.Store(false)
	w.ran = false
	return stale, nil
}

// LocalRanks lists the ranks this World instance hosts — all of them for the
// default in-process transport, typically one for a remote backend.
func (w *World) LocalRanks() []int {
	return slices.Clone(w.local)
}

// RankStats returns the traffic counters of one rank. Safe to call from any
// goroutine at any time, including while Run is in flight — the counters are
// lock-free atomics, so live polling never races with the ranks.
func (w *World) RankStats(rank int) Stats {
	return w.stats[rank].snapshot()
}

// LiveSnapshot builds the serializable live view of this world's traffic —
// per-rank aggregates plus the per-tag-family breakdown for every local
// rank, and the registry snapshot when an observer is attached. Safe to call
// from any goroutine while Run is in flight (the counters are lock-free
// atomics); it is what the -http endpoint of the CLI tools serves and
// dmgm-trace -watch polls.
func (w *World) LiveSnapshot() *obs.LiveSnapshot {
	s := &obs.LiveSnapshot{
		CapturedUnixNanos: time.Now().UnixNano(),
		WorldSize:         w.size,
		LocalRanks:        w.LocalRanks(),
	}
	w.eachTraffic(func(rank int, family string, fs FamilyStats) {
		if family == "" {
			s.Ranks = append(s.Ranks, obs.RankTraffic{
				Rank:      rank,
				SentMsgs:  fs.SentMsgs,
				SentBytes: fs.SentBytes,
				RecvMsgs:  fs.RecvMsgs,
				RecvBytes: fs.RecvBytes,
			})
			return
		}
		rt := &s.Ranks[len(s.Ranks)-1]
		rt.Families = append(rt.Families, obs.FamilyTraffic{
			Family:    family,
			SentMsgs:  fs.SentMsgs,
			SentBytes: fs.SentBytes,
			RecvMsgs:  fs.RecvMsgs,
			RecvBytes: fs.RecvBytes,
		})
	})
	if w.obs != nil {
		s.Metrics = w.obs.Registry().Snapshot()
	}
	return s
}

// TotalStats sums the counters over all ranks.
func (w *World) TotalStats() Stats {
	var t Stats
	for r := 0; r < w.size; r++ {
		t.Add(w.RankStats(r))
	}
	return t
}

// Comm is one rank's handle to the world. A Comm is used only by its own
// rank's goroutine and is not safe for concurrent use.
type Comm struct {
	world *World
	rank  int
	rng   uint64
	// stash holds, oldest first, the messages take popped on the way to the
	// one it was asked for; every later take serves from it first.
	stash []Message
	// round counts this rank's local exchanges; its parity selects the slot
	// array (see exchange).
	round uint
	// vclock is this rank's virtual clock (see vtime.go).
	vclock float64
	// Observability hooks (all nil when the world has no observer; the nil
	// instruments make every instrumented call a single comparison).
	tr     *obs.Tracer
	vops   *obs.Counter // per-rank vertex-operation counter
	eops   *obs.Counter // per-rank edge-operation counter
	epochs *obs.Counter // per-rank barrier/collective epoch counter
}

// Tracer returns this rank's span tracer, or nil when observability is off.
// All tracer methods are nil-safe, so algorithms instrument unconditionally.
func (c *Comm) Tracer() *obs.Tracer { return c.tr }

// Metrics returns the world's metrics registry, or nil when observability is
// off. All registry and instrument methods are nil-safe.
func (c *Comm) Metrics() *obs.Registry {
	if c.world.obs == nil {
		return nil
	}
	return c.world.obs.Registry()
}

// Rank reports this rank's id in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks.
func (c *Comm) Size() int { return c.world.size }

// Send delivers data to rank to with the given tag. It never blocks. The
// data slice is owned by the receiver after the call; the sender must not
// modify it. Negative tags are reserved for the runtime's own traffic (the
// over-the-wire collectives) and are rejected here so that reserved and user
// messages can never collide.
func (c *Comm) Send(to, tag int, data []byte) {
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d sends to invalid rank %d", c.rank, to))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: rank %d sends tag %d; negative tags are reserved for the runtime", c.rank, tag))
	}
	c.world.stats[c.rank].countSent(FamilyOf(tag), int64(len(data)))
	c.send(transport.Msg{From: c.rank, To: to, Tag: tag, ArriveV: c.stampSend(len(data)), Payload: data})
}

// send ships a message through the transport. A transport error means the
// job is broken (a peer died mid-run), which no algorithm here can recover
// from, so it surfaces as a rank panic that Run captures.
func (c *Comm) send(m transport.Msg) {
	if err := c.world.tr.Send(m); err != nil {
		panic(fmt.Sprintf("mpi: rank %d send to %d: %v", c.rank, m.To, err))
	}
}

// Recv blocks until a user message (any source, any non-negative tag)
// arrives and returns it. Runtime-internal traffic (a peer racing ahead into
// the next collective) is stashed for the collective that expects it, never
// surfaced here.
func (c *Comm) Recv() Message {
	m, _ := c.take(true, anySender, anyUserTag)
	return m
}

// TryRecv returns a pending user message if one is available, without
// blocking.
func (c *Comm) TryRecv() (Message, bool) {
	return c.take(false, anySender, anyUserTag)
}

// What take may be asked for besides one sender and one tag.
const (
	anySender  = -1
	anyUserTag = math.MinInt // every non-negative tag
)

func wanted(m Message, from, tag int) bool {
	return (from == anySender || m.From == from) && (m.Tag == tag || tag == anyUserTag && m.Tag >= 0)
}

// take is the one way a message leaves this rank's stash or mailbox: it
// returns the oldest pending message from sender from (or anySender) whose
// tag is tag (or anyUserTag), waiting for one if block is set. The stash is
// scanned oldest first; after it, messages are popped from the mailbox — from
// that sender's queue only when one is named, so per-pair FIFO makes the
// first match the oldest — counted as received, and stashed when they are
// not the one asked for. The model clock advances only for the message
// handed to the caller, never for one that is stashed: its receiver has not
// seen it yet. A blocked take in a canceled world unwinds the rank with
// ErrCanceled.
func (c *Comm) take(block bool, from, tag int) (Message, bool) {
	for i, m := range c.stash {
		if wanted(m, from, tag) {
			c.stash = slices.Delete(c.stash, i, i+1)
			c.observeArrival(m.ArriveV)
			return m, true
		}
	}
	for {
		m, ok := c.world.boxes[c.rank].get(block, from, c.nextPick())
		if !ok {
			if block {
				panic(ErrCanceled)
			}
			return Message{}, false
		}
		c.world.stats[c.rank].countRecv(FamilyOf(m.Tag), 1, int64(len(m.Data)))
		if wanted(m, from, tag) {
			c.observeArrival(m.ArriveV)
			return m, true
		}
		c.stash = append(c.stash, m)
	}
}

// Err returns ErrCanceled once the world is canceled, and nil before. The
// kernels check it once per outer iteration or superstep, so that a rank
// busy computing stops too, not only the ranks Cancel wakes from a wait.
func (c *Comm) Err() error {
	if c.world.stop.Load() {
		return ErrCanceled
	}
	return nil
}

// nextPick returns the cross-sender selection key for one mailbox pop: 0 for
// round-robin, or a fresh pseudo-random value in perturbation mode.
func (c *Comm) nextPick() uint64 {
	if c.world.perturb == 0 {
		return 0
	}
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng ^ uint64(c.rank)<<32
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DrainTag removes and discards every currently pending message with the
// given tag (stashed or mailboxed), leaving other traffic untouched, and
// reports how many were dropped. Protocols whose termination is local (a
// rank may finish before stale peers' messages reach it — the matching
// algorithm's outer loop) call Barrier and then DrainTag so that a
// subsequent phase on the same world starts with a clean mailbox.
func (c *Comm) DrainTag(tag int) int {
	stashed := len(c.stash)
	c.stash = slices.DeleteFunc(c.stash, func(m Message) bool { return m.Tag == tag })
	n, bytes := c.world.boxes[c.rank].drainTag(tag)
	// Stashed messages were already counted when popped from the mailbox;
	// only the mailbox-drained ones are counted here, under the tag's family.
	c.world.stats[c.rank].countRecv(FamilyOf(tag), int64(n), bytes)
	return stashed - len(c.stash) + n
}

// mailbox is one rank's unbounded inbox, kept per sender so that per-pair
// FIFO survives randomized cross-sender draining, and in two sides so that
// the owner pays for the lock once per batch rather than once per message.
// Senders append to their queue in in[s] under mu. The owning rank's
// goroutine pops from its own queues out[s] without any lock; only when the
// queue it was asked for is empty does it take mu, once, and swap every
// filled in[s] whose out[s] is empty (refill) — an O(1) slice swap per
// sender, so each pair's two arrays ping-pong between the sides. An out[s]
// is refilled only when empty, so it always holds older messages than in[s].
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	in      [][]Message  // the senders' side, one queue per sender; under mu
	pending int          // messages in in; under mu
	stop    *atomic.Bool // the world's cancel signal, see World.Cancel

	// The owner's side, touched by the owning rank's goroutine alone (and by
	// Reset, when no rank runs).
	out   []ownerQueue // one per sender
	local int          // messages in out
	next  int          // round-robin cursor over out
}

// ownerQueue is one sender's batch on the owner's side: msgs[head:] are still
// to be popped, and every slot of the array outside them is cleared — a pop
// must not keep a consumed bundle reachable once its array changes sides. An
// empty queue is rewound to the front of its array.
type ownerQueue struct {
	msgs []Message
	head int
}

func newMailbox(senders int, stop *atomic.Bool) *mailbox {
	mb := &mailbox{in: make([][]Message, senders), out: make([]ownerQueue, senders), stop: stop}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m Message) {
	mb.mu.Lock()
	mb.in[m.From] = append(mb.in[m.From], m)
	mb.pending++
	mb.mu.Unlock()
	mb.cond.Signal()
}

// holds reports whether the owner's side has a message for a get from sender
// from (or anySender).
func (mb *mailbox) holds(from int) bool {
	if from == anySender {
		return mb.local > 0
	}
	return len(mb.out[from].msgs) > 0
}

// get pops the oldest message of one sender's queue: sender from, or with
// anySender a non-empty owner-side queue selected by pick (see choose). It is
// the only place a rank waits for a message: when the owner's side holds
// nothing for the request it refills under mu, and with block set it sleeps
// until a refill brings something. Only the owning rank's goroutine receives,
// so one condition variable serves both kinds of wait. A blocking get
// returns false only when the world is canceled.
func (mb *mailbox) get(block bool, from int, pick uint64) (Message, bool) {
	if !mb.holds(from) {
		mb.mu.Lock()
		for mb.refill(); !mb.holds(from); mb.refill() {
			if !block || mb.stop.Load() {
				mb.mu.Unlock()
				return Message{}, false
			}
			mb.cond.Wait()
		}
		mb.mu.Unlock()
	}
	if from == anySender {
		from = mb.choose(pick)
	}
	q := &mb.out[from]
	m := q.msgs[q.head]
	q.msgs[q.head] = Message{}
	if q.head++; q.head == len(q.msgs) {
		q.msgs, q.head = q.msgs[:0], 0
	}
	mb.local--
	return m, true
}

// refill moves every filled sender-side queue whose owner-side queue is empty
// across, handing the emptied owner-side array back to the sender. Called
// with mu held.
func (mb *mailbox) refill() {
	if mb.pending == 0 {
		return
	}
	for s, batch := range mb.in {
		if len(batch) > 0 && len(mb.out[s].msgs) == 0 {
			mb.in[s] = mb.out[s].msgs
			mb.out[s].msgs = batch
			mb.pending -= len(batch)
			mb.local += len(batch)
		}
	}
}

// choose names a non-empty owner-side queue (one exists): the next one
// round-robin when pick is 0, otherwise the (pick mod count)-th of them.
func (mb *mailbox) choose(pick uint64) int {
	n := len(mb.out)
	if pick == 0 {
		for i := 0; ; i++ {
			if s := (mb.next + i) % n; len(mb.out[s].msgs) > 0 {
				mb.next = (s + 1) % n
				return s
			}
		}
	}
	nonEmpty := 0
	for s := range mb.out {
		if len(mb.out[s].msgs) > 0 {
			nonEmpty++
		}
	}
	k := int(pick % uint64(nonEmpty))
	for s := 0; ; s++ {
		if len(mb.out[s].msgs) > 0 {
			if k == 0 {
				return s
			}
			k--
		}
	}
}

// drainAll empties both sides of the mailbox and drops their arrays,
// returning how many messages were discarded, and rewinds the round-robin
// cursor so receive order after a Reset matches a fresh mailbox.
func (mb *mailbox) drainAll() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	n := mb.pending + mb.local
	clear(mb.in)
	clear(mb.out)
	mb.pending, mb.local, mb.next = 0, 0, 0
	return n
}

// drainTag removes all pending messages with the given tag from both sides,
// returning how many were removed and their total payload size. The owning
// rank calls it.
func (mb *mailbox) drainTag(tag int) (n int, bytes int64) {
	drop := func(m Message) bool {
		if m.Tag != tag {
			return false
		}
		n++
		bytes += int64(len(m.Data))
		return true
	}
	for s := range mb.out {
		q := &mb.out[s]
		// The slots before head are cleared already; DeleteFunc clears the
		// ones it vacates.
		q.msgs, q.head = slices.DeleteFunc(q.msgs[q.head:], drop), 0
	}
	mb.local -= n
	owned := n
	mb.mu.Lock()
	for s := range mb.in {
		mb.in[s] = slices.DeleteFunc(mb.in[s], drop)
	}
	mb.pending -= n - owned
	mb.mu.Unlock()
	return n, bytes
}

// wake broadcasts on the mailbox's condition under its lock, so that a
// receiver between its check of the cancel signal and its wait cannot miss
// the signal.
func (mb *mailbox) wake() {
	mb.mu.Lock()
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// barrier is a reusable (cyclic) barrier that also reduces a float64
// payload to its maximum (the virtual-clock synchronization).
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	size     int
	count    int
	gen      uint64
	curMax   float64
	readyMax float64
	stop     *atomic.Bool // the world's cancel signal, see World.Cancel
}

func newBarrier(size int, stop *atomic.Bool) *barrier {
	b := &barrier{size: size, stop: stop}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all ranks arrive and returns the maximum payload of
// this generation. A rank waiting in a canceled world unwinds with
// ErrCanceled instead, leaving the generation incomplete for Reset to clear.
func (b *barrier) await(v float64) float64 {
	b.mu.Lock()
	gen := b.gen
	if v > b.curMax {
		b.curMax = v
	}
	b.count++
	if b.count == b.size {
		b.count = 0
		b.gen++
		b.readyMax = b.curMax
		b.curMax = 0
		b.cond.Broadcast()
		out := b.readyMax
		b.mu.Unlock()
		return out
	}
	for gen == b.gen {
		if b.stop.Load() {
			b.mu.Unlock()
			panic(ErrCanceled)
		}
		b.cond.Wait()
	}
	out := b.readyMax
	b.mu.Unlock()
	return out
}

// reset abandons an incomplete generation (Reset after a cancel).
func (b *barrier) reset() {
	b.mu.Lock()
	b.count, b.curMax = 0, 0
	b.mu.Unlock()
}

// wake is mailbox.wake for the barrier's waiters.
func (b *barrier) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}
