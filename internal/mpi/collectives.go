package mpi

import (
	"encoding/binary"
	"math"

	"repro/internal/mpi/transport"
)

// Collectives. Barrier, the two allreduces and Allgather are each written
// once, on one meeting: a symmetric all-to-all on a reserved negative tag,
// through the mailbox like any other message. Each rank sends its
// contribution to every peer and collects exactly one message of that tag
// from each — the same code whether the peers are goroutines of this process
// or ranks across the wire. Reserved traffic is metered in the runtime tag
// family only, which the aggregate Stats exclude (the modeled machine's
// collectives are charged via Sync, not α–β), so an algorithm's message
// counts are those of its own tags alone.
//
// The model clock follows one rule: the ranks leave a meeting on the maximum
// of the clocks they entered it with, plus its synchronization cost.
const (
	tagBarrier = -1 // no payload
	tagReduceI = -2 // payload: one int64 contribution
	tagReduceF = -3 // payload: one float64 contribution
	tagGather  = -4 // payload: the sender's Allgather bytes
)

// Barrier blocks until every rank has entered it. In virtual-time mode the
// ranks' clocks synchronize to the maximum plus the σ barrier cost.
//
// Barrier is also the runtime's delivery fence: everything sent to this rank
// before the senders entered the barrier is in this rank's mailbox (or stash)
// once Barrier returns. That follows from per-pair FIFO — the barrier
// exchanges a message with every peer, and receiving a peer's barrier message
// means everything it sent earlier has already been delivered.
func (c *Comm) Barrier() {
	c.exchange(tagBarrier, nil)
	c.synced(1)
}

// exchange is the meeting under every collective: it returns every rank's
// payload indexed by rank and leaves this rank's clock on the maximum of the
// clocks the ranks entered with.
//
// The entry clock rides in each message's arrival stamp, and taking the
// message is what pulls the receiver's clock up to it. Collection is per
// peer: take pops only the named sender's queue, so overlapping rounds cannot
// steal each other's messages — per-pair FIFO guarantees the oldest matching
// message is taken first, and anything else popped on the way lands in the
// stash for later receives.
func (c *Comm) exchange(tag int, payload []byte) [][]byte {
	w := c.world
	out := make([][]byte, w.size)
	for to := range out {
		if to != c.rank {
			w.stats[c.rank].countSent(FamilyRuntime, int64(len(payload)))
			c.send(transport.Msg{From: c.rank, To: to, Tag: tag, ArriveV: c.vclock, Payload: payload})
		}
	}
	out[c.rank] = payload
	for from := range out {
		if from != c.rank {
			m, _ := c.take(true, from, tag)
			out[from] = m.Data
		}
	}
	return out
}

// collective is the exchange under the payload-carrying collectives. The
// model charges each as two synchronizations, a deposit and a read.
func (c *Comm) collective(tag int, payload []byte) [][]byte {
	parts := c.exchange(tag, payload)
	c.synced(2)
	return parts
}

// ReduceOp names a reduction operator.
type ReduceOp int

const (
	// OpSum adds contributions.
	OpSum ReduceOp = iota
	// OpMax takes the maximum contribution.
	OpMax
)

// reduce folds the exchanged words with op in rank order — on every rank and
// every backend alike, so the result, floating-point included, is bitwise
// identical everywhere.
func reduce[T int64 | float64](parts [][]byte, op ReduceOp, decode func(uint64) T) T {
	var out T
	for r, p := range parts {
		v := decode(binary.BigEndian.Uint64(p))
		switch {
		case r == 0:
			out = v
		case op == OpSum:
			out += v
		case op == OpMax && v > out:
			out = v
		}
	}
	return out
}

// AllreduceInt64 combines one int64 per rank with op and returns the result
// on every rank.
func (c *Comm) AllreduceInt64(x int64, op ReduceOp) int64 {
	parts := c.collective(tagReduceI, binary.BigEndian.AppendUint64(nil, uint64(x)))
	return reduce(parts, op, func(u uint64) int64 { return int64(u) })
}

// AllreduceFloat64 combines one float64 per rank with op; see reduce for why
// every rank gets the same bits.
func (c *Comm) AllreduceFloat64(x float64, op ReduceOp) float64 {
	parts := c.collective(tagReduceF, binary.BigEndian.AppendUint64(nil, math.Float64bits(x)))
	return reduce(parts, op, math.Float64frombits)
}

// Allgather deposits each rank's byte slice and returns the full set indexed
// by rank, identical on every rank. The returned inner slices are shared;
// callers must not modify them.
func (c *Comm) Allgather(data []byte) [][]byte {
	return c.collective(tagGather, data)
}
