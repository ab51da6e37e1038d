package matching

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// precedes is the strict total order on edges that every algorithm here
// follows: heavier first, then lexicographic on the sorted endpoint pair. A
// consistent total order is what makes the locally-dominant (greedy) matching
// unique — the reason the result is identical at any rank count, and the
// reason the distributed protocols can reproduce the sequential one exactly.
// It is generic so that vertex labels and global ids share one text.
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

// better is precedes for two edges out of one vertex: arc (weight wa to a)
// beats arc (wb to b). Wherever the shared endpoint v falls among a and b,
// comparing the sorted pairs {v,a} and {v,b} comes down to a < b, so v drops
// out and each label stands for both ends of its pair — which keeps the
// candidate-mate scans' comparison small enough to inline.
func better[L ~int32 | ~int64](wa float64, a L, wb float64, b L) bool {
	return precedes(wa, a, a, wb, b, b)
}

// edgesInOrder returns g's edges sorted by precedes: the visiting order of
// the sorted-edge greedy references.
func edgesInOrder(g *graph.Graph) []graph.Edge {
	edges := g.Edges()
	slices.SortFunc(edges, func(a, b graph.Edge) int {
		if precedes(a.W, a.U, a.V, b.W, b.U, b.V) {
			return -1
		}
		return 1 // a simple graph's edges are distinct
	})
	return edges
}

// RecordBytes is the wire size of one protocol record:
// kind (1 byte) + source global id (8) + destination global id (8).
// As a MaxBundleBytes value it means one record per message, i.e. the
// paper's bundling switched off — the only spelling of that setting.
const RecordBytes = 17

func encodeRecord(buf []byte, kind byte, src, dst int64) {
	buf[0] = kind
	binary.LittleEndian.PutUint64(buf[1:9], uint64(src))
	binary.LittleEndian.PutUint64(buf[9:17], uint64(dst))
}

func decodeRecord(rec []byte) (kind byte, src, dst int64) {
	return rec[0], int64(binary.LittleEndian.Uint64(rec[1:9])), int64(binary.LittleEndian.Uint64(rec[9:17]))
}

// ParallelOptions tunes a distributed matching run.
type ParallelOptions struct {
	// MaxBundleBytes caps the per-destination aggregation buffer; 0 selects
	// the 64 KiB default. Setting it to one record (RecordBytes) disables
	// the paper's message bundling, the configuration the ablation bench
	// uses as its baseline.
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

// arcWeight returns the weight of the arc from owned v to its neighbor u.
func (r *rank) arcWeight(v, u int32) float64 {
	d := r.d
	for i := d.Xadj[v]; i < d.Xadj[v+1]; i++ {
		if d.Adj[i] == u {
			return d.Weight(i)
		}
	}
	panic("matching: arcWeight on non-neighbor")
}

// countsEdge reports whether owned vertex v is the side on which the matched
// edge to the vertex with global id mate counts toward LocalWeight: the
// smaller global id, so that summing over ranks counts every matched edge
// exactly once — interior or cross.
func (r *rank) countsEdge(v int32, mate int64) bool { return r.d.GlobalOf(v) < mate }

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

// send ships a record of the given kind about owned vertex v to the owner of
// u, both by local index.
func (l *link) send(kind byte, v, u int32) {
	var rec [RecordBytes]byte
	encodeRecord(rec[:], kind, l.d.GlobalOf(v), l.d.GlobalOf(u))
	l.out.Add(l.d.OwnerOf(u), rec[:])
}

// receive is the one way a message comes off the wire for a matching kernel:
// it refuses a tag family the link does not speak, charges one virtual-time
// edge op per record, lets the kernel walk the bundle — by offset, in
// RecordBytes steps, with decode — and then recycles the buffer for the
// link's future sends.
func (l *link) receive(m mpi.Message, walk func(bundle []byte)) {
	if m.Tag != l.tag || len(m.Data)%RecordBytes != 0 {
		panic(fmt.Sprintf("matching: rank %d speaking tag %d got a %d-byte message with tag %d", l.d.Rank, l.tag, len(m.Data), m.Tag))
	}
	l.c.ChargeOps(int64(len(m.Data)/RecordBytes), 0)
	walk(m.Data)
	l.out.Recycle(m.Data)
}

// decode reads the record at bundle[off:] and resolves its endpoints to
// local indices: the destination v must be owned by this rank and the source
// u known to it (a ghost; or, for b-suitor's interior proposals, owned).
func (r *rank) decode(bundle []byte, off int) (kind byte, v, u int32) {
	kind, src, dst := decodeRecord(bundle[off : off+RecordBytes])
	v, okV := r.d.LocalOf(dst)
	u, okU := r.d.LocalOf(src)
	if !okV || !okU || r.d.IsGhost(v) {
		panic(fmt.Sprintf("matching: record %d -> %d on rank %d: destination not owned or source unknown here", src, dst, r.d.Rank))
	}
	return kind, v, u
}
