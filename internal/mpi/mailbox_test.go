package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestMailboxModel drives one mailbox the way a world does — concurrent
// senders, and the owner alone receiving — with a random mix of the owner's
// operations (a receive from any sender or from one, blocking or not, under
// round-robin or perturbed picks; DrainTag; and, between phases, Reset), and
// checks it against the reference of one FIFO per sender. A receive from one
// sender names the tag it waits for as a collective does: any user tag, the
// marker's, or a reserved one. A blocked get sleeps until a put brings a
// message of that sender and tag, so it ends only if the wake rule lets such
// a put through, and then hands out the sender's oldest message whatever its
// tag.
//
//   - every message is received at most once and in its sender's order, and
//     every message skipped on the way was taken by a DrainTag of its tag,
//     which counts exactly the messages it took;
//   - pending + local always equals what the two sides hold, and, whenever
//     the senders are quiet, what was sent and neither received nor drained;
//   - no popped, drained or swapped-out slot on either side still holds its
//     payload.
//
// Each sender's last message of a phase carries tag 0, which no DrainTag
// names, and one message before it the reserved tag of a Barrier, so a
// blocking receive waits only while a marker, or a reserved message it names,
// is still due. A few messages follow the marker, for Reset and for a
// DrainTag with the senders quiet, which must leave no message of its tag on
// either side.
func TestMailboxModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runMailboxModel(t, seed) })
	}
}

const modelSenders = 3

func runMailboxModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const phases = 25
	// plan[p][s] is the tags sender s sends in phase p; tags[s] is the same
	// per sender, by sequence number, for the owner's checks.
	var plan [phases][modelSenders][]int
	var tags [modelSenders][]int
	for p := range plan {
		for s := range plan[p] {
			for range rng.Intn(40) {
				plan[p][s] = append(plan[p][s], 1+rng.Intn(2))
			}
			plan[p][s] = slices.Insert(plan[p][s], rng.Intn(len(plan[p][s])+1), tagBarrier)
			plan[p][s] = append(plan[p][s], 0)
			for range rng.Intn(6) {
				plan[p][s] = append(plan[p][s], 1+rng.Intn(2))
			}
			tags[s] = append(tags[s], plan[p][s]...)
		}
	}

	var stop atomic.Bool
	mb := newMailbox(0, modelSenders, math.MaxInt64, &stop, nil)
	m := &mailboxModel{t: t, mb: mb, tags: &tags}
	var seq [modelSenders]int // next sequence number per sender
	for p := range plan {
		var senders sync.WaitGroup
		for s := range modelSenders {
			senders.Add(1)
			go func(s int, batch []int, first int, gen int64) {
				defer senders.Done()
				r := rand.New(rand.NewSource(gen))
				for i, tag := range batch {
					data := binary.LittleEndian.AppendUint64(nil, uint64(first+i))
					mb.put(Message{From: s, Tag: tag, Data: data})
					if r.Intn(4) == 0 {
						runtime.Gosched()
					}
				}
			}(s, plan[p][s], seq[s], rng.Int63())
			seq[s] += len(plan[p][s])
			m.sent += len(plan[p][s])
		}
		m.phase(rng)
		senders.Wait()
		if rng.Intn(2) == 0 {
			m.drainQuiet(1 + rng.Intn(2))
		}
		skipped := m.quiet(seq)
		if rng.Intn(3) == 0 {
			m.reset(rng, seq, skipped)
		}
	}
	m.reset(rng, seq, m.quiet(seq))
}

// mailboxModel is the owner's side of the model test: the per-sender
// reference and the counts the checks reconcile.
type mailboxModel struct {
	t    *testing.T
	mb   *mailbox
	tags *[modelSenders][]int

	next     [modelSenders]int // per sender, every earlier message is accounted for
	sent     int               // messages sent so far, once the phase's senders are done
	received int
	drained  [3]int // what DrainTag reported, by tag
	skipped  [3]int // messages received past, by tag: they must have been drained
	dropped  int    // what Reset dropped
}

// phase runs the owner's random operations until every sender's marker of
// the phase has been received.
func (m *mailboxModel) phase(rng *rand.Rand) {
	markers := modelSenders // markers of this phase still due
	due := [modelSenders]bool{true, true, true}
	reserved := due // the reserved messages of this phase still due
	for markers > 0 {
		pick := uint64(0)
		if rng.Intn(2) == 0 {
			pick = rng.Uint64()
		}
		from, tag := anySender, anyUserTag
		switch op := rng.Intn(10); {
		case op < 2: // DrainTag
			tag := 1 + rng.Intn(2)
			n, _ := m.mb.drainTag(tag)
			m.drained[tag] += n
			m.ownerSide()
			continue
		case op < 5: // from one sender whose marker is still due, for a tag still due
			for from = rng.Intn(modelSenders); !due[from]; from = (from + 1) % modelSenders {
			}
			switch rng.Intn(3) {
			case 1:
				tag = 0
			case 2:
				if reserved[from] {
					tag = tagBarrier
				}
			}
		}
		block := rng.Intn(3) > 0
		msg, ok := m.mb.get(block, from, tag, pick)
		if !ok {
			if block {
				m.t.Fatal("a blocking get came back empty in a world nobody canceled")
			}
			m.ownerSide()
			continue
		}
		m.accept(msg)
		switch msg.Tag {
		case 0:
			due[msg.From] = false
			markers--
		case tagBarrier:
			reserved[msg.From] = false
		}
		m.ownerSide()
	}
}

// accept checks one received message against its sender's FIFO.
func (m *mailboxModel) accept(msg Message) {
	s, k := msg.From, int(binary.LittleEndian.Uint64(msg.Data))
	if k < m.next[s] {
		m.t.Fatalf("sender %d: message %d received again, or out of order (next due %d)", s, k, m.next[s])
	}
	if want := m.tags[s][k]; msg.Tag != want {
		m.t.Fatalf("sender %d: message %d has tag %d, want %d", s, k, msg.Tag, want)
	}
	for j := m.next[s]; j < k; j++ {
		m.skip(s, j, &m.skipped)
	}
	m.next[s] = k + 1
	m.received++
}

// skip counts message j of sender s, gone from its FIFO unreceived, into
// skipped by its tag. Only a DrainTag takes a message so, and none names the
// marker's tag or a reserved one.
func (m *mailboxModel) skip(s, j int, skipped *[3]int) {
	tag := m.tags[s][j]
	if tag <= 0 {
		m.t.Fatalf("sender %d: message %d of tag %d skipped; no DrainTag takes it", s, j, tag)
	}
	skipped[tag]++
}

// drainQuiet drains tag while no sender runs and checks that no message of
// the tag is left on either side.
func (m *mailboxModel) drainQuiet(tag int) {
	n, _ := m.mb.drainTag(tag)
	m.drained[tag] += n
	m.mb.mu.Lock()
	defer m.mb.mu.Unlock()
	for s := range modelSenders {
		q := m.mb.out[s]
		for _, msg := range append(q.msgs[q.head:len(q.msgs):len(q.msgs)], m.mb.in[s]...) {
			if msg.Tag == tag {
				m.t.Fatalf("sender %d: a message of tag %d survived DrainTag", s, tag)
			}
		}
	}
}

// ownerSide checks what the owner may read at any time: local counts the
// owner-side queues, and no owner-side slot outside a queue holds a payload.
func (m *mailboxModel) ownerSide() {
	local := 0
	for s, q := range m.mb.out {
		local += len(q.msgs) - q.head
		if len(q.msgs) == 0 && q.head != 0 {
			m.t.Fatalf("sender %d: empty owner-side queue not rewound (head %d)", s, q.head)
		}
		for i, msg := range q.msgs[:cap(q.msgs)] {
			if (i < q.head || i >= len(q.msgs)) && msg.Data != nil {
				m.t.Fatalf("sender %d: owner-side slot %d outside the queue holds a payload", s, i)
			}
		}
	}
	if local != m.mb.local {
		m.t.Fatalf("local = %d, the owner-side queues hold %d", m.mb.local, local)
	}
}

// quiet checks the whole mailbox while no sender runs: pending + local is
// what was sent and neither received nor drained; what is queued per sender
// is in order, past what was received, and every message missing between is
// one a DrainTag took; the byte count the bound reads is what is queued; and
// no slot on the sender side outside a queue holds a payload. It returns the
// skipped counts with those missing messages in.
func (m *mailboxModel) quiet(seq [modelSenders]int) [3]int {
	m.ownerSide()
	m.mb.mu.Lock()
	defer m.mb.mu.Unlock()
	pending := 0
	for s, batch := range m.mb.in {
		pending += len(batch)
		for i, msg := range batch[len(batch):cap(batch)] {
			if msg.Data != nil {
				m.t.Fatalf("sender %d: sender-side slot %d past the queue holds a payload", s, len(batch)+i)
			}
		}
	}
	if pending != m.mb.pending {
		m.t.Fatalf("pending = %d, the sender-side queues hold %d", m.mb.pending, pending)
	}
	drained := m.drained[1] + m.drained[2]
	if queued := m.sent - m.received - drained - m.dropped; m.mb.pending+m.mb.local != queued {
		m.t.Fatalf("pending %d + local %d, want %d sent and neither received, drained nor reset",
			m.mb.pending, m.mb.local, queued)
	}
	skipped := m.skipped
	var bytes int64
	for s := range modelSenders {
		q := m.mb.out[s]
		j := m.next[s]
		for _, msg := range append(q.msgs[q.head:len(q.msgs):len(q.msgs)], m.mb.in[s]...) {
			bytes += int64(len(msg.Data)) + messageBytes
			k := int(binary.LittleEndian.Uint64(msg.Data))
			if msg.From != s || k < j {
				m.t.Fatalf("sender %d: queued message %d (from %d) out of order, %d expected at the earliest", s, k, msg.From, j)
			}
			for ; j < k; j++ {
				m.skip(s, j, &skipped)
			}
			j = k + 1
		}
		for ; j < seq[s]; j++ {
			m.skip(s, j, &skipped)
		}
	}
	if skipped[1] != m.drained[1] || skipped[2] != m.drained[2] {
		m.t.Fatalf("messages gone from the FIFOs by tag %v, DrainTag reported %v", skipped, m.drained)
	}
	if got := m.mb.bytes - m.mb.popped; got != bytes {
		m.t.Fatalf("the mailbox counts %d bytes less %d popped, %d are queued", m.mb.bytes, m.mb.popped, bytes)
	}
	if m.mb.peak < m.mb.bytes {
		m.t.Fatalf("peak %d below the %d bytes counted", m.mb.peak, m.mb.bytes)
	}
	return skipped
}

// reset drops everything queued, as World.Reset does, checks the count, and
// checks that both sides are empty. The queue arrays must survive, emptied
// and with no payload in any slot up to their capacity, when together they
// fit in the mailbox's keep, and be gone when they do not; keep is drawn
// from the default and the two values either side of what the arrays hold,
// so both outcomes and the boundary between them are taken. skipped is
// quiet's account of the messages DrainTag took, which a reset makes final.
func (m *mailboxModel) reset(rng *rand.Rand, seq [modelSenders]int, skipped [3]int) {
	var caps [modelSenders][2]int
	var held int64
	for s := range modelSenders {
		caps[s] = [2]int{cap(m.mb.in[s]), cap(m.mb.out[s].msgs)}
		held += int64(caps[s][0]+caps[s][1]) * messageBytes
	}
	m.mb.keep = [...]int64{keepBytes / modelSenders, held, held - 1}[rng.Intn(3)]
	queued := m.mb.pending + m.mb.local
	if n := m.mb.drainAll(); n != queued {
		m.t.Fatalf("drainAll dropped %d, %d were queued", n, queued)
	}
	m.dropped += queued
	m.skipped, m.next = skipped, seq
	kept := held <= m.mb.keep
	for s := range modelSenders {
		in, q := m.mb.in[s], m.mb.out[s]
		if len(in) != 0 || len(q.msgs) != 0 || q.head != 0 {
			m.t.Fatalf("sender %d: drainAll left %d + %d messages (head %d)", s, len(in), len(q.msgs), q.head)
		}
		if !kept {
			if in != nil || q.msgs != nil {
				m.t.Fatalf("sender %d: %d bytes of arrays over a keep of %d survived drainAll", s, held, m.mb.keep)
			}
			continue
		}
		if got := [2]int{cap(in), cap(q.msgs)}; got != caps[s] {
			m.t.Fatalf("sender %d: array capacities %v after drainAll, %v before, within a keep of %d", s, got, caps[s], m.mb.keep)
		}
		for i, msg := range append(in[:cap(in)], q.msgs[:cap(q.msgs)]...) {
			if msg.Data != nil {
				m.t.Fatalf("sender %d: slot %d of a kept array holds a payload", s, i)
			}
		}
	}
	if m.mb.pending != 0 || m.mb.local != 0 || m.mb.next != 0 {
		m.t.Fatalf("drainAll left pending %d, local %d, cursor %d", m.mb.pending, m.mb.local, m.mb.next)
	}
	if m.mb.bytes != 0 || m.mb.popped != 0 || m.mb.peak != 0 {
		m.t.Fatalf("drainAll left bytes %d, popped %d, peak %d", m.mb.bytes, m.mb.popped, m.mb.peak)
	}
}

// TestMailboxWaitFiltersWakes pins the half of the wake rule the model cannot
// see, since a wake it need not have had changes no result: a get blocked for
// one sender and one tag sleeps through the puts it would not hand out for —
// another sender's message of its tag, and its sender's message of another
// tag — which stay on the senders' side, unrefilled, until a put it waits for
// comes. It then hands out that sender's oldest message.
func TestMailboxWaitFiltersWakes(t *testing.T) {
	for _, tc := range []struct {
		name            string
		wait, other, in int // the tag waited for, one it is not, and one it is
	}{
		{"reserved", tagBarrier, 7, tagBarrier},
		{"marker", 0, 7, 0},
		{"any user tag", anyUserTag, tagBarrier, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stop atomic.Bool
			mb := newMailbox(0, 2, math.MaxInt64, &stop, nil)
			got := make(chan Message, 1)
			go func() {
				m, _ := mb.get(true, 1, tc.wait, 0)
				got <- m
			}()
			defer func() { stop.Store(true); mb.wake() }() // a failed check leaves the get asleep
			// get sets what it waits for under mu just before Wait releases
			// mu, so once it reads so, the owner sleeps.
			for asleep := false; !asleep; runtime.Gosched() {
				mb.mu.Lock()
				asleep = mb.wantFrom == 1 && mb.wantTag == tc.wait
				mb.mu.Unlock()
			}
			mb.put(Message{From: 0, Tag: tc.in, Data: []byte("other sender")})
			mb.put(Message{From: 1, Tag: tc.other, Data: []byte("oldest")})
			// No event marks a wake that should not happen: give a wrongly
			// woken owner the time to refill.
			time.Sleep(10 * time.Millisecond)
			mb.mu.Lock()
			pending := mb.pending
			mb.mu.Unlock()
			if pending != 2 {
				t.Fatalf("%d of 2 puts left on the senders' side: the owner woke for a put it does not wait for", pending)
			}
			mb.put(Message{From: 1, Tag: tc.in, Data: []byte("awaited")})
			if m := <-got; m.From != 1 || string(m.Data) != "oldest" {
				t.Fatalf("the woken get handed out %q from %d, want sender 1's oldest", m.Data, m.From)
			}
		})
	}
}

// TestMailboxCycleAllocatesNothing pins the retention: once a mailbox's two
// sides have grown, a cycle of puts, gets, drainAll (what World.Reset runs)
// and more puts allocates nothing.
func TestMailboxCycleAllocatesNothing(t *testing.T) {
	var stop atomic.Bool
	mb := newMailbox(0, 2, math.MaxInt64, &stop, nil)
	data := []byte{1}
	const n = 1000
	putN := func() {
		for i := range n {
			mb.put(Message{From: i % 2, Tag: 1, Data: data})
		}
	}
	cycle := func() {
		putN()
		for range n / 2 {
			mb.get(false, anySender, anyUserTag, 0)
		}
		mb.drainAll()
		putN()
		mb.drainAll()
	}
	cycle() // the arrays grow on both sides
	if got := testing.AllocsPerRun(10, cycle); got != 0 {
		t.Fatalf("a put / get / drainAll / put cycle allocates %.1f objects, want 0", got)
	}
}

// TestMailboxOwnerSideOwnsItsCacheLine pins the mailbox layout the owner's
// lock-free pops rely on: the owner's side starts at least a cache line past
// every field a put reads or writes, so no line holds both, and a stream of
// puts does not pull the lines the owner writes on every pop away from it.
func TestMailboxOwnerSideOwnsItsCacheLine(t *testing.T) {
	var mb mailbox
	senders := unsafe.Offsetof(mb.stop) + unsafe.Sizeof(mb.stop)
	if off := unsafe.Offsetof(mb.out); off < senders+64 {
		t.Errorf("the owner's side starts at byte %d, %d past the senders' fields; want at least 64", off, off-senders)
	}
}
