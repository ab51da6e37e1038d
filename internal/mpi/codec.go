package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// A Codec is the wire layout of one family of index-addressed records. A
// record names an entry of a table the sending and the receiving rank keep
// with each other, by its index, and carries one datum x: a kind of KindBits
// bits packed under the index, uvarint(z<<KindBits | x), or, with KindBits
// 0, a value of up to 32 bits in a second uvarint, uvarint(z), uvarint(x).
//
// z is the index itself in a message's first record and, in every later one,
// the zig-zag difference from the previous record's index. The kernels fill
// a message in table order, so the differences are small and z is mostly one
// byte where the index itself takes two or three. The plain layout, every z
// the index itself, is what a Bundler's cap counts (AddIndexed), so coding
// the differences changes a message's bytes and never where it ends.
type Codec struct {
	KindBits uint
}

// Append appends the record (index, x) to msg, a message of c's records whose
// last record names prev (ignored while msg is empty), and returns the
// extended message. index must not be negative.
func (c Codec) Append(msg []byte, prev, index int32, x uint32) []byte {
	z := uint64(index)
	if len(msg) > 0 {
		d := int64(index) - int64(prev)
		z = uint64(d<<1 ^ d>>63)
	}
	if c.KindBits > 0 {
		return binary.AppendUvarint(msg, z<<c.KindBits|uint64(x))
	}
	return binary.AppendUvarint(binary.AppendUvarint(msg, z), uint64(x))
}

// plainSize is the record's size in the plain layout, read off bit lengths.
func (c Codec) plainSize(index int32, x uint32) int {
	if c.KindBits > 0 {
		return uvarintLen(uint64(index)<<c.KindBits | uint64(x))
	}
	return uvarintLen(uint64(index)) + uvarintLen(uint64(x))
}

// uvarintLen is the length of x's uvarint: one byte per started 7 bits.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// Walk starts a walk over msg, a message of c's records that rank from sent
// on tag, against a table of n ≤ 2³¹ entries: Next reads the records one by
// one.
func (c Codec) Walk(from, tag int, msg []byte, n int) Walker {
	return Walker{c: c, from: from, tag: tag, msg: msg, n: int64(n)}
}

// A Walker reads one message of a codec's records back, in order (declare it
// outside the loop that calls Next: a loop variable is copied every pass). A
// record that is cut short (or overlong), or whose index runs below 0 or past
// the table, is a protocol violation, and Next panics naming it.
type Walker struct {
	// Index and X are the record the last Next read.
	Index int32
	X     uint32

	c         Codec
	from, tag int
	msg       []byte
	at        int   // where the next record starts in msg
	n         int64 // table entries
	k         int64 // records read
}

// Next reads the next record into Index and X, or reports false at the end of
// the message.
func (w *Walker) Next() bool {
	if w.at == len(w.msg) {
		return false
	}
	z, m := binary.Uvarint(w.msg[w.at:])
	if m <= 0 {
		w.refuse(true, 0)
	}
	w.at += m
	if kb := w.c.KindBits & 63; kb > 0 { // & 63 spares the shifts a range check
		w.X, z = uint32(z&(1<<kb-1)), z>>kb
	} else {
		x, m := binary.Uvarint(w.msg[w.at:])
		if m <= 0 || x > math.MaxUint32 {
			w.refuse(true, 0)
		}
		w.at, w.X = w.at+m, uint32(x)
	}
	// One unsigned comparison refuses an index below 0 or past the table.
	// The sum cannot wrap round into the table: the previous index is below
	// 2³¹, so a sum past 2⁶³ wraps to a negative one.
	index := int64(z)
	if w.k > 0 {
		index = int64(w.Index) + unzigzag(z)
	}
	if uint64(index) >= uint64(w.n) {
		w.refuse(false, z)
	}
	w.Index = int32(index)
	w.k++
	return true
}

// unzigzag undoes the zig-zag coding of a difference.
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// Records reports how many records the walk has read.
func (w *Walker) Records() int64 { return w.k }

// refuse panics with the protocol violation of the record at hand: it is
// cut short, or its z names an index below 0 or past the table — as a first
// record z is the index; after it, a difference, which went down past 0 if it
// is negative and up past the table if not.
func (w *Walker) refuse(cut bool, z uint64) {
	var what string
	switch d := unzigzag(z); {
	case cut:
		what = "is cut short or overlong"
	case w.k == 0:
		what = fmt.Sprintf("names index %d, past the table of %d", z, w.n)
	case d < 0:
		what = fmt.Sprintf("moves index %d by %d, below 0", w.Index, d)
	default:
		what = fmt.Sprintf("moves index %d by %d, past the table of %d", w.Index, d, w.n)
	}
	panic(fmt.Sprintf("mpi: record %d of a %d-byte message with tag %d from rank %d %s",
		w.k, len(w.msg), w.tag, w.from, what))
}
