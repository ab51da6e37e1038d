package mpi

import (
	"fmt"

	"repro/internal/obs"
)

// Bundler implements the paper's central communication optimization:
// "aggressive message bundling, where messages sent between the same pair of
// processors are grouped as often as possible" (Section 1). Algorithm-level
// records destined for the same rank accumulate in a per-destination buffer
// and ship as one runtime message when the algorithm flushes, or as soon as
// another record of the maximal size might not fit under MaxBytes. Records
// may be shorter than that size (the kernels' are varints); how a bundle
// splits back into records is then the family's codec's business. Bundles of
// records all of the maximal size split with Records.
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
type Bundler struct {
	c          *Comm
	tag        int
	recordSize int
	maxBytes   int
	bufs       [][]byte
	free       [][]byte // recycled buffers, reused by Add for new bundles
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
		if n := len(b.free); n > 0 {
			b.bufs[to] = b.free[n-1]
			b.free = b.free[:n-1]
		}
	}
	b.bufs[to] = append(b.bufs[to], rec...)
	if len(b.bufs[to])+b.recordSize > b.maxBytes {
		b.flushOne(to)
	}
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

// Flush ships every non-empty buffer.
func (b *Bundler) Flush() {
	for to := range b.bufs {
		if len(b.bufs[to]) > 0 {
			b.flushOne(to)
		}
	}
}

func (b *Bundler) flushOne(to int) {
	buf := b.bufs[to]
	b.bufs[to] = nil
	b.c.Send(to, b.tag, buf)
	b.Flushes++
	b.flushCtr.Inc()
	b.famFlushCtr.Inc()
	b.sizeHist.Observe(int64(len(buf)))
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
