package mpi

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/mpi/transport"
)

// Collectives. Barrier, AllreduceInt64, Allgather and Gather are each written
// once over meet, on a reserved negative tag, through the mailbox like any
// other message: the same code whether the peers are goroutines of this
// process or ranks across the wire. The first three are all-to-alls, each
// rank sending its contribution to every peer; Gather is the rooted fan-in.
// Reserved traffic is metered in the runtime tag family only, which the
// aggregate Stats exclude (the modeled machine's collectives are charged via
// Sync, not α–β), so an algorithm's message counts are those of its own tags
// alone. The model clock follows one rule: a rank leaves a meeting on the
// maximum of its own entry clock and those of the ranks it took a message
// from — for an all-to-all, every rank's — plus its synchronization cost.
const (
	tagBarrier = -1 // no payload
	tagReduceI = -2 // payload: one int64 contribution
	tagGather  = -4 // payload: the sender's bytes, to rank 0 (Gather) or to every rank (Allgather)
)

// meet is the one meeting loop under every collective and neighbour
// exchange: it sends out(i) to to[i] on the reserved wire tag, metered under
// that tag's family, then takes one message of the tag from each rank of
// from and returns their payloads in that order. A collective's message
// (runtime family) carries its sender's entry clock, which taking it pulls
// the taker's clock up to; an exchange's is charged α–β like Send's. take
// pops only the named sender's queue, so by per-pair FIFO overlapping
// meetings cannot steal each other's messages; anything else popped on the
// way is stashed for later receives.
func (c *Comm) meet(wire int, to []int, out func(i int) []byte, from []int) [][]byte {
	fam := FamilyOf(wire)
	for i, r := range to {
		payload := out(i)
		at := c.vclock
		if fam != FamilyRuntime {
			at = c.stampSend(len(payload))
		}
		c.world.stats[c.rank].countSent(fam, int64(len(payload)))
		c.send(transport.Msg{From: c.rank, To: r, Tag: wire, ArriveV: at, Payload: payload})
	}
	in := make([][]byte, len(from), len(from)+1) // room for a collective's own part
	for i, r := range from {
		m, _ := c.take(true, r, wire)
		in[i] = m.Data
	}
	return in
}

// others lists every rank but this one, ascending.
func (c *Comm) others() []int {
	peers := make([]int, 0, c.world.size-1)
	for r := range c.world.size {
		if r != c.rank {
			peers = append(peers, r)
		}
	}
	return peers
}

// Barrier blocks until every rank has entered it; in virtual-time mode the
// ranks' clocks synchronize to the maximum plus the σ barrier cost. It is
// also a delivery fence: by per-pair FIFO, everything sent to this rank
// before its senders entered the barrier has arrived once Barrier returns.
func (c *Comm) Barrier() { c.exchange(tagBarrier, nil, 1) }

// exchange is the all-to-all under the collectives but Gather: it returns
// every rank's payload indexed by rank and charges syncs synchronizations —
// one for Barrier, two (a deposit and a read) for the others.
func (c *Comm) exchange(tag int, payload []byte, syncs int64) [][]byte {
	peers := c.others()
	parts := slices.Insert(c.meet(tag, peers, func(int) []byte { return payload }, peers), c.rank, payload)
	c.synced(syncs)
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

// AllreduceInt64 combines one int64 per rank with op and returns the result
// on every rank (a sum wraps).
func (c *Comm) AllreduceInt64(x int64, op ReduceOp) int64 {
	sum, most := int64(0), int64(math.MinInt64)
	for _, p := range c.exchange(tagReduceI, binary.BigEndian.AppendUint64(nil, uint64(x)), 2) {
		v := int64(binary.BigEndian.Uint64(p))
		sum, most = sum+v, max(most, v)
	}
	if op == OpMax {
		return most
	}
	return sum
}

// Allgather deposits each rank's byte slice and returns the full set indexed
// by rank, identical on every rank. The returned inner slices are shared;
// callers must not modify them.
func (c *Comm) Allgather(data []byte) [][]byte {
	return c.exchange(tagGather, data, 2)
}

// Gather collects every rank's bytes on rank 0: there it returns them
// indexed by rank, and on every other rank nil. It is a fan-in, not a
// synchronization, and charges no Sync: rank 0 leaves on the maximum of the
// clocks the ranks entered with, every other rank on its own entry clock.
// The returned inner slices are shared; callers must not modify them.
func (c *Comm) Gather(data []byte) [][]byte {
	if c.rank != 0 {
		c.meet(tagGather, []int{0}, func(int) []byte { return data }, nil)
		return nil
	}
	return slices.Insert(c.meet(tagGather, nil, nil, c.others()), 0, data)
}
