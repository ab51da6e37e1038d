package matching

import (
	"fmt"

	"repro/internal/dgraph"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// A protocol record names a cross edge and says one of up to four things about
// it, its kind: the edge is named by its index in the table the sending and
// the receiving rank keep with each other (dgraph.Pair), coded by recordCodec,
// uvarint(z << kindBits | kind) with z the index or its difference from the
// previous record's in the bundle — one to five bytes, mostly one.
const kindBits = 2

var recordCodec = mpi.Codec{KindBits: kindBits}

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
	l.out.AddIndexed(d.OwnerOf(d.Adj[arc]), recordCodec, d.EdgeAt[arc], uint32(kind))
}

// receive is the one way a message comes off the wire for a matching kernel:
// it refuses a tag family the link does not speak, walks the bundle — handing
// the kernel each record's kind, the owned vertex v it is addressed to and
// the ghost u it comes from, read out of the pair table kept with the sender —
// charges one virtual-time edge op per record, and then recycles the buffer
// for the link's future sends. A record that is cut short, or names an edge
// the two ranks do not share, is a protocol violation (the walker's panic).
func (l *link) receive(m mpi.Message, each func(kind byte, v, u int32)) {
	if m.Tag != l.tag {
		panic(fmt.Sprintf("matching: rank %d speaking tag %d got a %d-byte message with tag %d", l.d.Rank, l.tag, len(m.Data), m.Tag))
	}
	edges := l.d.PairWith(m.From).Edges
	w := recordCodec.Walk(m.From, m.Tag, m.Data, len(edges))
	for w.Next() {
		e := edges[w.Index]
		each(byte(w.X), e.V, e.U)
	}
	l.c.ChargeOps(w.Records(), 0)
	l.out.Recycle(m.Data)
}
