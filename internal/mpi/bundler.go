package mpi

import (
	"fmt"

	"repro/internal/obs"
)

// Bundler implements the paper's central communication optimization:
// "aggressive message bundling, where messages sent between the same pair of
// processors are grouped as often as possible" (Section 1). Algorithm-level
// records destined for the same rank accumulate in a per-destination buffer
// and ship as one runtime message when the algorithm flushes (or exchanges,
// see Exchange), or as soon as another record of the maximal size might not
// fit under MaxBytes. Opaque records (Add) may be shorter than that size;
// bundles of records all of the maximal size split with Records. The
// kernels' records are index-addressed (AddIndexed): a Codec writes each
// after a bundle's first as the difference from the previous one, and the
// cap counts them at their plain size, so a bundle ships at the record it
// would ship at if every index were written in full.
//
// With bundling disabled (MaxBytes ≤ 1 maximal record), every record travels
// alone — the configuration the ablation benchmarks compare against.
//
// Buffer ownership: a flushed buffer is owned by the receiver (Send's
// contract), so the sender drops its reference and starts the next bundle
// from scratch. To avoid steady-state allocation, a rank that has fully
// consumed an inbound bundle may hand the backing array back via Recycle;
// Add then reuses it for a future outbound bundle. This is safe precisely
// because the receiver owns the delivered slice — recycling something the
// runtime still references is impossible by construction. (Over a wire
// transport the payload is copied into a frame at Send time and inbound
// payloads are fresh per-frame allocations, so the same contract holds.) The
// free list holds at most one buffer per destination — all that Add can have
// in use at once — so a rank that receives more than it sends parks nothing.
//
// A bundler whose cap is at most slabRecords maximal records (bundling off,
// or nearly) sends many buffers too small to be worth an allocation each:
// with nothing to recycle, Add carves them out of a slab of slabBytes
// instead. Each carved buffer's capacity ends at the cap, so no append can
// reach a neighbour's bytes, and it is the receiver's like any other.
type Bundler struct {
	c          *Comm
	tag        int
	recordSize int
	maxBytes   int
	bufs       [][]byte
	indexed    []pending // per destination, the AddIndexed bundle's state
	free       [][]byte  // recycled buffers, reused by Add for new bundles
	slab       []byte    // carved up to len; nil unless maxBytes is small
	// Flushes counts runtime messages actually sent, for ablation reporting.
	Flushes int64
	// Records counts algorithm-level records added.
	Records int64

	// Registry instruments (nil when the world runs without an observer).
	// The family-suffixed pair attributes bundle activity to the tag family
	// of the bundler's tag (mpi.bundle_flushes.match, ...), alongside the
	// aggregate counters shared by all bundlers.
	flushCtr     *obs.Counter
	recordCtr    *obs.Counter
	famFlushCtr  *obs.Counter
	famRecordCtr *obs.Counter
	sizeHist     *obs.Histogram // bundle payload bytes at flush time
}

// pending is what AddIndexed keeps of a bundle under way: its size in the
// plain layout, which the cap counts, and the index of its last record.
type pending struct {
	plain int
	prev  int32
}

// Small bundles come from slabs of slabBytes when the cap is at most
// slabRecords maximal records.
const (
	slabBytes   = 4 << 10
	slabRecords = 4
)

// NewBundler creates a bundler for records of up to recordSize bytes on the
// given tag. maxBytes caps the per-destination buffer; 0 selects 64 KiB, the
// "infrequent, large messages" regime of the paper. Setting maxBytes to
// recordSize (or less) disables aggregation.
func NewBundler(c *Comm, tag, recordSize, maxBytes int) *Bundler {
	if recordSize <= 0 {
		panic("mpi: non-positive record size")
	}
	if maxBytes == 0 {
		maxBytes = 64 << 10
	}
	if maxBytes < recordSize {
		maxBytes = recordSize
	}
	b := &Bundler{
		c:          c,
		tag:        tag,
		recordSize: recordSize,
		maxBytes:   maxBytes,
		bufs:       make([][]byte, c.Size()),
		indexed:    make([]pending, c.Size()),
	}
	if reg := c.Metrics(); reg != nil {
		fam := FamilyOf(tag).String()
		b.flushCtr = reg.Counter("mpi.bundle_flushes")
		b.recordCtr = reg.Counter("mpi.bundle_records")
		b.famFlushCtr = reg.Counter(obs.FamilyKey("mpi.bundle_flushes", fam))
		b.famRecordCtr = reg.Counter(obs.FamilyKey("mpi.bundle_records", fam))
		b.sizeHist = reg.Histogram("mpi.bundle_bytes", obs.ExpBounds(16, 128<<10))
	}
	return b
}

// Add appends one record destined for rank to, shipping the buffer once
// another maximal record might not fit. rec must be 1 to recordSize bytes.
func (b *Bundler) Add(to int, rec []byte) {
	if len(rec) == 0 || len(rec) > b.recordSize {
		panic(fmt.Sprintf("mpi: record of %d bytes, want 1 to %d", len(rec), b.recordSize))
	}
	b.Records++
	b.recordCtr.Inc()
	b.famRecordCtr.Inc()
	if b.bufs[to] == nil {
		if b.bufs[to] = b.Spare(); b.bufs[to] == nil && b.maxBytes <= slabRecords*b.recordSize {
			b.bufs[to] = b.carve()
		}
	}
	b.bufs[to] = append(b.bufs[to], rec...)
	if len(b.bufs[to])+b.recordSize > b.maxBytes {
		b.flushOne(to)
	}
}

// AddIndexed appends the record (index, x) in codec c's layout to the bundle
// for rank to, shipping it once another maximal record might not fit in the
// plain layout. A bundler carries AddIndexed or Add records, not both.
func (b *Bundler) AddIndexed(to int, c Codec, index int32, x uint32) {
	b.Records++
	b.recordCtr.Inc()
	b.famRecordCtr.Inc()
	buf := b.bufs[to]
	if buf == nil {
		if buf = b.Spare(); buf == nil && b.maxBytes <= slabRecords*b.recordSize {
			buf = b.carve()
		}
	}
	p := &b.indexed[to]
	b.bufs[to] = c.Append(buf, p.prev, index, x)
	p.prev = index
	if p.plain += c.plainSize(index, x); p.plain+b.recordSize > b.maxBytes {
		b.flushOne(to)
	}
}

// carve cuts an empty buffer of capacity maxBytes from the slab, starting a
// new slab when the rest of this one is too short. The old slab stays alive
// only as long as buffers cut from it do.
func (b *Bundler) carve() []byte {
	i := len(b.slab)
	if i+b.maxBytes > cap(b.slab) {
		b.slab, i = make([]byte, 0, max(slabBytes, b.maxBytes)), 0
	}
	b.slab = b.slab[:i+b.maxBytes]
	return b.slab[i : i : i+b.maxBytes]
}

// Recycle donates a fully consumed inbound bundle's backing array to the
// free list. The caller must not touch buf afterwards; only buffers it owns
// (i.e. payloads delivered to this rank) may be recycled. Tiny buffers are
// not worth keeping, and neither are more than Add can ever draw on.
func (b *Bundler) Recycle(buf []byte) {
	if cap(buf) >= b.recordSize && len(b.free) < len(b.bufs) {
		b.free = append(b.free, buf[:0])
	}
}

// Spare hands out a recycled buffer, emptied, or nil when none is left: what
// Add starts a bundle in, and what a caller that builds and sends its own
// messages on the bundler's behalf may start one in.
func (b *Bundler) Spare() []byte {
	n := len(b.free)
	if n == 0 {
		return nil
	}
	buf := b.free[n-1]
	b.free = b.free[:n-1]
	return buf
}

// Flush ships every non-empty buffer.
func (b *Bundler) Flush() {
	for to := range b.bufs {
		if len(b.bufs[to]) > 0 {
			b.flushOne(to)
		}
	}
}

// Exchange ships the buffers in one NeighborExchange with peers, in place of
// a last Flush: each peer gets its buffer, empty if no record is pending for
// it, and the payloads the peers sent are returned in peers order. Every
// pending record must be for a peer.
func (b *Bundler) Exchange(peers []int) [][]byte {
	out := make([][]byte, len(peers))
	for i, to := range peers {
		out[i], b.bufs[to], b.indexed[to].plain = b.bufs[to], nil, 0
		b.flushed(len(out[i]))
	}
	return b.c.NeighborExchange(b.tag, peers, out)
}

func (b *Bundler) flushOne(to int) {
	buf := b.bufs[to]
	b.bufs[to], b.indexed[to].plain = nil, 0
	b.c.Send(to, b.tag, buf)
	b.flushed(len(buf))
}

// flushed counts one bundle of n bytes sent.
func (b *Bundler) flushed(n int) {
	b.Flushes++
	b.flushCtr.Inc()
	b.famFlushCtr.Inc()
	b.sizeHist.Observe(int64(n))
}

// Records splits a received bundle of fixed-size records back into them. The
// returned slices alias data.
func Records(data []byte, recordSize int) [][]byte {
	if len(data)%recordSize != 0 {
		panic(fmt.Sprintf("mpi: bundle of %d bytes is not a multiple of record size %d", len(data), recordSize))
	}
	out := make([][]byte, 0, len(data)/recordSize)
	for off := 0; off < len(data); off += recordSize {
		out = append(out, data[off:off+recordSize])
	}
	return out
}
