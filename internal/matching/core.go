package matching

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// precedes is the strict total order on edges that every algorithm here
// follows: heavier first, then lexicographic on the sorted endpoint pair. A
// consistent total order is what makes the locally-dominant (greedy) matching
// unique — the reason the result is identical at any rank count, and the
// reason the distributed protocols can reproduce the sequential one exactly.
// Greedy sorts by it; the candidate-mate scans realise it through row order
// (graph.BestArc). It is generic so that vertex labels and global ids share
// one text.
func precedes[L ~int32 | ~int64](wa float64, a1, a2 L, wb float64, b1, b2 L) bool {
	if wa != wb {
		return wa > wb
	}
	if a1 > a2 {
		a1, a2 = a2, a1
	}
	if b1 > b2 {
		b1, b2 = b2, b1
	}
	if a1 != b1 {
		return a1 < b1
	}
	return a2 < b2
}

// A protocol record names a cross edge and says one of up to four things about
// it: uvarint(edge << kindBits | kind), where edge is the edge's index in the
// table the sending and the receiving rank keep with each other
// (dgraph.Pair) — one to five bytes, two or three on anything but a toy.
const kindBits = 2

// RecordBytes is the upper bound on the wire size of one record that the
// bundlers are built for; no record comes near it. As a MaxBundleBytes value
// it means one record per message, i.e. the paper's bundling switched off —
// the only spelling of that setting (any value up to RecordBytes has that
// effect: a bundle ships as soon as another RecordBytes might not fit).
const RecordBytes = 17

// ParallelOptions tunes a distributed matching run.
type ParallelOptions struct {
	// MaxBundleBytes caps the per-destination aggregation buffer; 0 selects
	// the 64 KiB default. A buffer ships once another record of RecordBytes
	// might not fit, so setting it to RecordBytes disables the paper's
	// message bundling — one record per message, the configuration the
	// ablation bench uses as its baseline.
	MaxBundleBytes int
}

// rank is the state every distributed matching kernel keeps per rank.
type rank struct {
	c   *mpi.Comm
	d   *dgraph.DistGraph
	tr  *obs.Tracer
	opt ParallelOptions
}

// newRank checks that share d is this rank's share of a graph distributed
// over c's world.
func newRank(c *mpi.Comm, d *dgraph.DistGraph, opt ParallelOptions) (rank, error) {
	if c.Size() != d.P {
		return rank{}, fmt.Errorf("matching: world size %d, graph distributed over %d", c.Size(), d.P)
	}
	if c.Rank() != d.Rank {
		return rank{}, fmt.Errorf("matching: rank %d given share of rank %d", c.Rank(), d.Rank)
	}
	return rank{c: c, d: d, tr: c.Tracer(), opt: opt}, nil
}

// link is one tag family's record channel on a rank: the bundler that ships
// this rank's records of that family, and the pool the family's consumed
// inbound bundles return to.
type link struct {
	*rank
	tag int
	out *mpi.Bundler
}

func (r *rank) newLink(tag int) link {
	return link{rank: r, tag: tag, out: mpi.NewBundler(r.c, tag, RecordBytes, r.opt.MaxBundleBytes)}
}

// send ships a record of the given kind along the cross arc at position arc
// of the CSR — from its owned end to the owner of its ghost end.
func (l *link) send(kind byte, arc int64) {
	d := l.d
	var rec [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(rec[:], uint64(d.EdgeAt[arc])<<kindBits|uint64(kind))
	l.out.Add(d.OwnerOf(d.Adj[arc]), rec[:n])
}

// receive is the one way a message comes off the wire for a matching kernel:
// it refuses a tag family the link does not speak, walks the bundle — handing
// the kernel each record's kind, the owned vertex v it is addressed to and
// the ghost u it comes from, read out of the pair table kept with the sender —
// charges one virtual-time edge op per record, and then recycles the buffer
// for the link's future sends. A record that is cut short, or names an edge
// the two ranks do not share, is a protocol violation.
func (l *link) receive(m mpi.Message, each func(kind byte, v, u int32)) {
	if m.Tag != l.tag {
		panic(fmt.Sprintf("matching: rank %d speaking tag %d got a %d-byte message with tag %d", l.d.Rank, l.tag, len(m.Data), m.Tag))
	}
	edges := l.d.PairWith(m.From).Edges
	var records int64
	for data := m.Data; len(data) > 0; records++ {
		x, n := binary.Uvarint(data)
		if n <= 0 || x>>kindBits >= uint64(len(edges)) {
			panic(fmt.Sprintf("matching: rank %d: record %d of a %d-byte bundle from rank %d is cut short or names none of the %d edges the two share",
				l.d.Rank, records, len(m.Data), m.From, len(edges)))
		}
		data = data[n:]
		e := edges[x>>kindBits]
		each(byte(x&(1<<kindBits-1)), e.V, e.U)
	}
	l.c.ChargeOps(records, 0)
	l.out.Recycle(m.Data)
}
