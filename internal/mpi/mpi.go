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
//   - Sends never block the sender, mirroring buffered MPI_Isend as used
//     with aggregated message bundles. Every mailbox has a bound in bytes, a
//     share of the process's memory limit (see mailboxBytes): a send that
//     would take it past the bound is dropped instead, and the run fails
//     with ErrMailboxFull — blocking there could deadlock a protocol whose
//     ranks all send before they first receive.
//
// Each rank's mailbox has two sides per sender. A send appends to the
// sender's queue on one side under the mailbox lock; the receiving rank pops
// from its own side with no lock, and only when that runs dry takes the lock
// once to swap every filled sender queue across whole. A stream of tiny
// messages therefore costs the receiver one lock per batch, not one per
// message. The queue arrays survive Reset, up to keepBytes per world, so a
// reused world does not grow them again.
//
// A rank waits in exactly one place, its mailbox: every collective is a
// message exchange (see collectives.go). World.Cancel wakes every mailbox,
// and a rank waiting in a canceled world unwinds with ErrCanceled; the
// kernels also check Comm.Err once per outer iteration or superstep. The
// first rank to fail cancels its world the same way. So does the watchdog
// every World has: a Run whose ranks have not all returned after 10 minutes
// (or the WithDeadline that overrides it) is canceled and names the ranks
// still running. A canceled world is runnable again after Reset.
//
// The runtime also meters traffic: per-rank sent/received message and byte
// counters, which both the experiments and the α–β performance model
// consume. Counters are kept per message-tag family (see FamilyOf and
// docs/PROTOCOL.md), so every byte on the wire is attributed to a protocol
// phase, and the aggregates are the sum of the user families;
// World.LiveMetrics reads the same breakdown into the registry's keys while a
// run is in flight.
package mpi

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
	allLocal bool  // every rank is local: the world can be Reset
	boxes    []*mailbox
	stats    []rankCounters // lock-free live traffic counters, one per rank
	perturb  uint64         // nonzero enables randomized cross-sender receive order
	deadline time.Duration
	vt       *VirtualTime
	obs      *obs.Observer
	// finalVTime records each rank's virtual clock (as Float64bits) when its
	// Run body returned.
	finalVTime []atomic.Uint64
	// stop is the cancel signal (see Cancel); every mailbox reads it through
	// a pointer.
	stop atomic.Bool
	// failed is the run's first failure, which canceled it (see fail).
	failMu sync.Mutex
	failed error

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

// defaultDeadline is the watchdog of a World made without WithDeadline.
const defaultDeadline = 10 * time.Minute

// WithDeadline overrides the 10-minute watchdog every World has: Run aborts
// if the ranks have not all finished within d, reporting which ranks were
// still alive. The abort cancels the world (see Cancel), so ranks stuck in a
// wait unwind. NewWorld refuses a non-positive d.
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
		finalVTime: make([]atomic.Uint64, size),
		deadline:   defaultDeadline,
	}
	for _, o := range opts {
		o(w)
	}
	if w.deadline <= 0 {
		return nil, fmt.Errorf("mpi: non-positive deadline %v", w.deadline)
	}
	if w.tr == nil {
		w.tr = transport.NewInproc(size)
	}
	if w.tr.Size() != size {
		return nil, fmt.Errorf("mpi: transport spans %d ranks, world wants %d", w.tr.Size(), size)
	}
	w.local = w.tr.Local()
	w.allLocal = len(w.local) == size
	limit := mailboxBytes()
	for _, r := range w.local {
		w.boxes[r] = newMailbox(r, size, limit, &w.stop, w.fail)
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
// of them. The first rank to return an error or panic cancels the world, so
// the others unwind, and Run returns that first failure; a panic is captured
// rather than crashing the process.
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
// sums them into the global totals.
func (w *World) publishStats() {
	if w.obs == nil {
		return
	}
	reg := w.obs.Registry()
	w.addTraffic(reg)
	for _, r := range w.local {
		reg.Vec("mpi.mailbox_peak_bytes", w.size).At(r).Add(w.boxes[r].peakBytes())
	}
}

// addTraffic is the one walk behind both the end-of-run publication and the
// live view (LiveMetrics): it adds every local rank's counters into reg's
// traffic vecs — the aggregate mpi.{sent,recv}_{msgs,bytes}, then each tag
// family's four under obs.FamilyKey. A family that saw no traffic is
// skipped, so its vecs exist only once it has, and the registry stays
// readable.
func (w *World) addTraffic(reg *obs.Registry) {
	for _, r := range w.local {
		s := w.stats[r].snapshot()
		add := func(family string, fs FamilyStats) {
			reg.Vec(obs.FamilyKey("mpi.sent_msgs", family), w.size).At(r).Add(fs.SentMsgs)
			reg.Vec(obs.FamilyKey("mpi.sent_bytes", family), w.size).At(r).Add(fs.SentBytes)
			reg.Vec(obs.FamilyKey("mpi.recv_msgs", family), w.size).At(r).Add(fs.RecvMsgs)
			reg.Vec(obs.FamilyKey("mpi.recv_bytes", family), w.size).At(r).Add(fs.RecvBytes)
		}
		add("", s.UserFamilyTotals())
		for f, fs := range s.ByFamily {
			if fs != (FamilyStats{}) {
				add(TagFamily(f).String(), fs)
			}
		}
	}
}

// ErrCanceled is what a rank of a canceled world unwinds with, out of a wait
// in Comm.take, and what the kernels return when they see the signal at the
// head of an outer iteration or superstep (Comm.Err). Run's error wraps it.
var ErrCanceled = errors.New("mpi: run canceled")

// ErrMailboxFull is what Run's error wraps (as a *MailboxFullError) when a
// send would have taken a mailbox past its bound. The send is dropped rather
// than blocked, the world is canceled, and its ranks unwind.
var ErrMailboxFull = errors.New("mpi: mailbox full")

// MailboxFullError names the mailbox that reached its bound and the send
// that would have passed it.
type MailboxFullError struct {
	Receiver, Sender int
	// Depth is the messages queued on the senders' side, not yet taken up
	// by the receiver; Bytes is what the mailbox held as the bound counts
	// it, and Limit the bound.
	Depth        int
	Bytes, Limit int64
}

func (e *MailboxFullError) Error() string {
	return fmt.Sprintf("mpi: mailbox of rank %d full: a send from rank %d would pass its %d bytes (%d messages, %d bytes queued)",
		e.Receiver, e.Sender, e.Limit, e.Depth, e.Bytes)
}

func (e *MailboxFullError) Unwrap() error { return ErrMailboxFull }

// mailboxBytes is the bound NewWorld gives each mailbox: a quarter of the Go
// runtime's memory limit (GOMEMLIMIT, or debug.SetMemoryLimit), the one
// memory budget a process states, read when the world is made. One queue
// holding more would leave the rest of the process too little to run in.
// With no limit set, as by default, the bound is a quarter of math.MaxInt64
// and a queue grows as long as its job needs.
func mailboxBytes() int64 { return debug.SetMemoryLimit(-1) / 4 }

// Cancel stops the world's run in flight, or its next Run until Reset: it
// raises the cancel signal, then wakes every local mailbox. Each wait
// rechecks the signal after every wake, so every rank blocked in a receive or
// a collective unwinds with ErrCanceled, and one that is computing stops at
// its kernel's next check. Once the ranks have returned, Reset makes the world
// runnable again. Safe to call from any goroutine, any number of times.
func (w *World) Cancel() {
	w.stop.Store(true)
	for _, r := range w.local {
		w.boxes[r].wake()
	}
}

// fail records err as the run's failure unless one is recorded already, and
// cancels the world so that every rank unwinds. It is how a failing rank and
// a full mailbox stop the run.
func (w *World) fail(err error) {
	w.failMu.Lock()
	if w.failed == nil {
		w.failed = err
	}
	w.failMu.Unlock()
	w.Cancel()
}

// failure is the error fail recorded first, or nil.
func (w *World) failure() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failed
}

func (w *World) run(fn func(c *Comm) error) error {
	if w.stop.Load() {
		w.setNotRunning()
		return ErrCanceled
	}
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
					w.fail(err)
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
				w.fail(fmt.Errorf("mpi: rank %d: %w", rank, err))
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
	// Stopped when the ranks return, so no timer outlives the Run.
	watchdog := time.NewTimer(w.deadline)
	defer watchdog.Stop()
	select {
	case <-finished:
		return w.failure()
	case <-watchdog.C:
	}
	mu.Lock()
	stuck := []int{}
	for i, d := range done {
		if !d {
			stuck = append(stuck, w.local[i])
		}
	}
	mu.Unlock()
	// A failure that canceled the run before the deadline usually explains
	// why ranks are still running; surface it too.
	firstErr := w.failure()
	// The stuck ranks unwind in the background; Reset refuses until they
	// have.
	w.Cancel()
	if firstErr != nil {
		return fmt.Errorf("mpi: deadline exceeded; ranks still running: %v; first failure: %w", stuck, firstErr)
	}
	return fmt.Errorf("mpi: deadline exceeded; ranks still running: %v", stuck)
}

func (w *World) setNotRunning() {
	w.runMu.Lock()
	w.running = false
	w.runMu.Unlock()
}

// Reset returns a completed all-local World to a runnable state so the next
// Run starts from scratch: every mailbox is drained (the count of discarded
// stale messages is returned) and keeps its queue arrays if they fit in its
// share of keepBytes, all per-rank traffic counters, mailbox peaks and
// virtual clocks are zeroed, and the mailbox round-robin cursors rewind so a
// reused World receives in exactly the same order as a fresh one — results stay
// bit-identical across pool reuse. A canceled or failed world is
// un-canceled and its failure forgotten; the inproc transport's Start/Close
// are stateless.
//
// stale counts what was still in the mailboxes only. A message a rank popped
// on its way to another one (see Comm.take) sat in that rank's stash, was
// counted as received there, and went with its Comm when the rank returned.
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
	w.stop.Store(false)
	w.failMu.Lock()
	w.failed = nil
	w.failMu.Unlock()
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

// LiveMetrics is the live document of a run: the observer's registry
// snapshot, whose traffic vecs are read from the live counters into a scratch
// registry by the walk publishStats makes when the run ends, so they carry
// the same keys. Safe to call from any goroutine while Run is in flight (the
// counters are lock-free atomics); it is what /metrics on the CLIs' -http
// port serves.
func (w *World) LiveMetrics() *obs.MetricsSnapshot {
	live := obs.NewRegistry()
	w.addTraffic(live)
	s := w.obs.Registry().Snapshot()
	maps.Copy(s.PerRank, live.Snapshot().PerRank)
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
// collectives and the neighbour exchanges) and are rejected here so that
// reserved and user messages can never collide.
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

// NeighborExchange sends out[i], possibly empty, to peers[i] on tag and
// returns, in the same order, the one payload each peer sent this rank in its
// matching exchange: MPI's neighbourhood all-to-all. Every peer must name this
// rank among its own peers. The messages travel on a reserved wire tag (see
// exchangeTag), so Recv, TryRecv and DrainTag never see them, and are metered
// under tag's family like Send's. Since a peer sends everything else before
// its exchange message, everything it sent this rank earlier has arrived
// (stashed, or still in the mailbox) once the exchange returns.
func (c *Comm) NeighborExchange(tag int, peers []int, out [][]byte) [][]byte {
	return c.meet(exchangeTag(tag), peers, func(i int) []byte { return out[i] }, peers)
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
			if i == 0 { // O(1), so that draining a long stash is linear
				c.stash[0] = Message{}
				c.stash = c.stash[1:]
			} else {
				c.stash = slices.Delete(c.stash, i, i+1)
			}
			c.observeArrival(m.ArriveV)
			return m, true
		}
	}
	for {
		m, ok := c.world.boxes[c.rank].get(block, from, tag, c.nextPick())
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
// algorithm's outer loop) fence on a NeighborExchange and then DrainTag so
// that a subsequent phase on the same world starts with a clean mailbox.
func (c *Comm) DrainTag(tag int) int {
	stashed := len(c.stash)
	c.stash = slices.DeleteFunc(c.stash, func(m Message) bool { return m.Tag == tag })
	n, bytes := c.world.boxes[c.rank].drainTag(tag)
	// Stashed messages were already counted when popped from the mailbox;
	// only the mailbox-drained ones are counted here, under the tag's family.
	c.world.stats[c.rank].countRecv(FamilyOf(tag), int64(n), bytes)
	return stashed - len(c.stash) + n
}

// mailbox is one rank's inbox, kept per sender so that per-pair FIFO
// survives randomized cross-sender draining, and in two sides so that the
// owner pays for the lock once per batch rather than once per message.
// Senders append to their queue in in[s] under mu. The owning rank's
// goroutine pops from its own queues out[s] without any lock; only when the
// queue it was asked for is empty does it take mu, once, and swap every
// filled in[s] whose out[s] is empty (refill) — an O(1) slice swap per
// sender, so each pair's two arrays ping-pong between the sides. An out[s]
// is refilled only when empty, so it always holds older messages than in[s].
//
// A mailbox is bounded: it counts each queued message as its payload plus
// messageBytes, and a put that would pass limit is dropped and reported
// through full (see ErrMailboxFull). The owner pops without the lock, so
// bytes counts the owner's side as of its last lock: popped, what it took
// since, comes off there. The count can run over what is queued by at most
// what the owner's side held at that lock, never under it.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	in       [][]Message  // the senders' side, one queue per sender; under mu
	pending  int          // messages in in; under mu
	bytes    int64        // what the mailbox holds, as counted above; under mu
	peak     int64        // the high-water mark of bytes; under mu
	refused  bool         // a put passed limit; the run is failing; under mu
	wantFrom int          // the sender the owner last slept waiting for; under mu
	wantTag  int          // and the tag: a put wakes it only for such a message
	limit    int64        // the bound on bytes
	keep     int64        // drainAll keeps the queue arrays up to this size
	rank     int          // the owner, for the error
	full     func(error)  // told of the first refused put, with mu released
	stop     *atomic.Bool // the world's cancel signal, see World.Cancel

	// The owner's side, touched by the owning rank's goroutine alone (and by
	// Reset, when no rank runs). The pad keeps it off every cache line a put
	// touches, wherever the mailbox is allocated.
	_      [64]byte
	out    []ownerQueue // one per sender
	local  int          // messages in out
	popped int64        // bytes popped since the owner last held mu
	next   int          // round-robin cursor over out
}

// messageBytes is what a queued message costs its mailbox besides its
// payload: its queue slot.
const messageBytes = int64(unsafe.Sizeof(Message{}))

// keepBytes caps the queue arrays a world keeps across Reset, split evenly
// over its mailboxes (newMailbox), so an idle pooled world holds at most
// this much whatever its size. Measured on RMAT-16 after jobs that send
// every matching record alone: ≤ 8.4 MiB per world at 4 ranks (≤ 4.3 MiB a
// mailbox, under the 8 MiB each may keep), ≤ 7.4 MiB at 8 and 16 ranks,
// where the fullest mailboxes pass their share and drop their arrays; a few
// KiB after bundled jobs.
const keepBytes = 32 << 20

// ownerQueue is one sender's batch on the owner's side: msgs[head:] are still
// to be popped, and every slot of the array outside them is cleared — a pop
// must not keep a consumed bundle reachable once its array changes sides. An
// empty queue is rewound to the front of its array.
type ownerQueue struct {
	msgs []Message
	head int
}

func newMailbox(rank, senders int, limit int64, stop *atomic.Bool, full func(error)) *mailbox {
	mb := &mailbox{
		in: make([][]Message, senders), out: make([]ownerQueue, senders),
		limit: limit, keep: keepBytes / int64(senders), rank: rank, full: full, stop: stop,
	}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// put queues m, or, if that would take the mailbox past its bound, drops it
// and reports the first such put. It never blocks on the receiver.
func (mb *mailbox) put(m Message) {
	cost := int64(len(m.Data)) + messageBytes
	mb.mu.Lock()
	if mb.bytes+cost > mb.limit {
		first := !mb.refused
		mb.refused = true
		err := &MailboxFullError{Receiver: mb.rank, Sender: m.From, Depth: mb.pending, Bytes: mb.bytes, Limit: mb.limit}
		mb.mu.Unlock()
		if first {
			mb.full(err)
		}
		return
	}
	mb.in[m.From] = append(mb.in[m.From], m)
	mb.pending++
	if mb.bytes += cost; mb.bytes > mb.peak {
		mb.peak = mb.bytes
	}
	wake := wanted(m, mb.wantFrom, mb.wantTag)
	mb.mu.Unlock()
	if wake {
		mb.cond.Signal()
	}
}

// peakBytes reports the mailbox's high-water mark since it was made or last
// drained whole.
func (mb *mailbox) peakBytes() int64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.peak
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
// until a put brings a message take would hand out for (from, tag) — not on
// every put, so a rank waiting for one peer's exchange message sleeps through
// the peer's other traffic, which it then pops in one pass. Only the owning
// rank's goroutine receives, so one condition variable serves both kinds of
// wait. A blocking get returns false only when the world is canceled.
func (mb *mailbox) get(block bool, from, tag int, pick uint64) (Message, bool) {
	if !mb.holds(from) {
		mb.mu.Lock()
		for mb.refill(); !mb.holds(from); mb.refill() {
			if !block || mb.stop.Load() {
				mb.mu.Unlock()
				return Message{}, false
			}
			mb.wantFrom, mb.wantTag = from, tag
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
	mb.popped += int64(len(m.Data)) + messageBytes
	return m, true
}

// refill settles what the owner popped since it last held mu, then moves
// every filled sender-side queue whose owner-side queue is empty across,
// handing the emptied owner-side array back to the sender. Called with mu
// held.
func (mb *mailbox) refill() {
	mb.bytes -= mb.popped
	mb.popped = 0
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

// drainAll empties both sides of the mailbox, returning how many messages
// were discarded, zeroes its count and peak, and rewinds the round-robin
// cursor so receive order after a Reset matches a fresh mailbox. The queue
// arrays stay, emptied and cleared, unless together they are larger than
// keep; then they go, as in a fresh mailbox.
func (mb *mailbox) drainAll() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	n := mb.pending + mb.local
	if mb.arrayBytes() > mb.keep {
		clear(mb.in)
		clear(mb.out)
	} else {
		// Slots outside the queues are clear already.
		for s := range mb.in {
			clear(mb.in[s])
			mb.in[s] = mb.in[s][:0]
			q := &mb.out[s]
			clear(q.msgs[q.head:])
			q.msgs, q.head = q.msgs[:0], 0
		}
	}
	mb.pending, mb.local, mb.next = 0, 0, 0
	mb.bytes, mb.peak, mb.popped, mb.refused = 0, 0, 0, false
	return n
}

// arrayBytes is what the queue arrays of both sides take, filled or not.
// Called with mu held, or when no rank runs.
func (mb *mailbox) arrayBytes() int64 {
	var slots int
	for s := range mb.in {
		slots += cap(mb.in[s]) + cap(mb.out[s].msgs)
	}
	return int64(slots) * messageBytes
}

// drainTag removes all pending messages with the given tag from both sides,
// compacting each queue in place to the front of its array, and returns how
// many were removed and their total payload size. The owning rank calls it.
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
		kept := 0
		for _, m := range q.msgs[q.head:] {
			if !drop(m) {
				q.msgs[kept] = m
				kept++
			}
		}
		clear(q.msgs[kept:])
		q.msgs, q.head = q.msgs[:kept], 0
	}
	mb.local -= n
	owned := n
	mb.mu.Lock()
	for s := range mb.in {
		// DeleteFunc clears the slots it vacates.
		mb.in[s] = slices.DeleteFunc(mb.in[s], drop)
	}
	mb.pending -= n - owned
	mb.bytes -= mb.popped + bytes + int64(n)*messageBytes
	mb.popped = 0
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
