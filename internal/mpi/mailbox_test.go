package mpi

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMailboxModel drives one mailbox the way a world does — concurrent
// senders, and the owner alone receiving — with a random mix of the owner's
// operations (a receive from any sender or from one, blocking or not, under
// round-robin or perturbed picks; DrainTag; and, between phases, Reset), and
// checks it against the reference of one FIFO per sender:
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
// names, so a blocking receive waits only while such a marker is still due.
// A few messages follow the marker, for Reset and for a DrainTag with the
// senders quiet, which must leave no message of its tag on either side.
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
			plan[p][s] = append(plan[p][s], 0)
			for range rng.Intn(6) {
				plan[p][s] = append(plan[p][s], 1+rng.Intn(2))
			}
			tags[s] = append(tags[s], plan[p][s]...)
		}
	}

	var stop atomic.Bool
	mb := newMailbox(modelSenders, &stop)
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
			m.reset(seq, skipped)
		}
	}
	m.reset(seq, m.quiet(seq))
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
	for markers > 0 {
		pick := uint64(0)
		if rng.Intn(2) == 0 {
			pick = rng.Uint64()
		}
		from := anySender
		switch op := rng.Intn(10); {
		case op < 2: // DrainTag
			tag := 1 + rng.Intn(2)
			n, _ := m.mb.drainTag(tag)
			m.drained[tag] += n
			m.ownerSide()
			continue
		case op < 5: // from one sender whose marker is still due
			for from = rng.Intn(modelSenders); !due[from]; from = (from + 1) % modelSenders {
			}
		}
		block := rng.Intn(3) > 0
		msg, ok := m.mb.get(block, from, pick)
		if !ok {
			if block {
				m.t.Fatal("a blocking get came back empty in a world nobody canceled")
			}
			m.ownerSide()
			continue
		}
		m.accept(msg)
		if msg.Tag == 0 {
			due[msg.From] = false
			markers--
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
		tag := m.tags[s][j]
		if tag == 0 {
			m.t.Fatalf("sender %d: marker %d skipped; no DrainTag takes tag 0", s, j)
		}
		m.skipped[tag]++
	}
	m.next[s] = k + 1
	m.received++
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
// one a DrainTag took; and no slot on the sender side outside a queue holds
// a payload. It returns the skipped counts with those missing messages in.
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
	for s := range modelSenders {
		q := m.mb.out[s]
		j := m.next[s]
		for _, msg := range append(q.msgs[q.head:len(q.msgs):len(q.msgs)], m.mb.in[s]...) {
			k := int(binary.LittleEndian.Uint64(msg.Data))
			if msg.From != s || k < j {
				m.t.Fatalf("sender %d: queued message %d (from %d) out of order, %d expected at the earliest", s, k, msg.From, j)
			}
			for ; j < k; j++ {
				skipped[m.tags[s][j]]++
			}
			j = k + 1
		}
		for ; j < seq[s]; j++ {
			skipped[m.tags[s][j]]++
		}
	}
	if skipped[0] != 0 || skipped[1] != m.drained[1] || skipped[2] != m.drained[2] {
		m.t.Fatalf("messages gone from the FIFOs by tag %v, DrainTag reported %v", skipped, m.drained)
	}
	return skipped
}

// reset drops everything queued, as World.Reset does, checks the count, and
// checks that both sides are empty and hold no arrays. skipped is quiet's
// account of the messages DrainTag took, which a reset makes final.
func (m *mailboxModel) reset(seq [modelSenders]int, skipped [3]int) {
	queued := m.mb.pending + m.mb.local
	if n := m.mb.drainAll(); n != queued {
		m.t.Fatalf("drainAll dropped %d, %d were queued", n, queued)
	}
	m.dropped += queued
	m.skipped, m.next = skipped, seq
	for s := range modelSenders {
		if m.mb.in[s] != nil || m.mb.out[s].msgs != nil || m.mb.out[s].head != 0 {
			m.t.Fatalf("sender %d: queues survived drainAll", s)
		}
	}
	if m.mb.pending != 0 || m.mb.local != 0 || m.mb.next != 0 {
		m.t.Fatalf("drainAll left pending %d, local %d, cursor %d", m.mb.pending, m.mb.local, m.mb.next)
	}
}
