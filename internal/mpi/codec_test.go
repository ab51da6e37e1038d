package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"
)

// codecRecord is one record as a kernel hands it to the codec: where it goes,
// the table index it names and its kind or color.
type codecRecord struct {
	to    int
	index int32
	x     uint32
}

// plainRecord is the record in the plain layout, every index written as is:
// the layout the cap counts, written out here independently of the codec.
func plainRecord(c Codec, r codecRecord) []byte {
	if c.KindBits > 0 {
		return binary.AppendUvarint(nil, uint64(r.index)<<c.KindBits|uint64(r.x))
	}
	return binary.AppendUvarint(binary.AppendUvarint(nil, uint64(r.index)), uint64(r.x))
}

// walkAll walks msg to the end against a table of n entries.
func walkAll(c Codec, msg []byte, n int) []codecRecord {
	var out []codecRecord
	w := c.Walk(0, 1, msg, n)
	for w.Next() {
		out = append(out, codecRecord{index: w.Index, x: w.X})
	}
	return out
}

// FuzzCodecRoundTrip feeds arbitrary sequences of (destination, index, kind
// or color) through a Bundler's AddIndexed, at caps from one record to
// 64 KiB, and through the direct encoder (Codec.Append, one message per
// destination, as FIAC / FIAB shipping and RECOLOR build theirs). Walking
// every message back gives each destination's records in order, a message's
// first record is in the plain layout byte for byte, no record outgrows the
// record bound, and the bundles end exactly where bundles of the plain
// layout end under the same cap: the codec changes bytes, never messages.
// Walks run against the tightest table, one past the largest index, where
// that index is FIAB's "one past the table".
func FuzzCodecRoundTrip(f *testing.F) {
	rec := func(to byte, index int32, x uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32([]byte{to}, uint32(index)), x)
	}
	seq := func(recs ...[]byte) []byte { return slices.Concat(recs...) }
	f.Add(false, uint16(0), []byte{})
	f.Add(false, uint16(0), seq(rec(1, 0, 0), rec(1, 1, 1), rec(1, 2, 2), rec(2, 0, 3)))
	f.Add(false, uint16(0), seq(rec(1, 900, 1), rec(1, 3, 2), rec(1, 800, 0))) // negative differences
	f.Add(true, uint16(0), seq(rec(0, math.MaxInt32, 7), rec(0, 0, math.MaxUint32), rec(0, math.MaxInt32, 0)))
	f.Add(true, uint16(3), seq(rec(2, 5, 1), rec(2, 40, 2), rec(2, 40, 3), rec(2, 6, 4), rec(2, 40, 5))) // 40: one past a table of 40
	f.Add(false, uint16(1), seq(rec(1, 1<<20, 3), rec(1, 0, 1), rec(1, 1<<20, 2), rec(1, 0, 0)))
	// A cap of 24: four plain records of two bytes fill it, where their
	// differences, a byte each, would leave room for three more.
	f.Add(false, uint16(7), seq(rec(1, 1000, 0), rec(1, 1001, 1), rec(1, 1002, 2), rec(1, 1003, 3), rec(1, 1004, 0), rec(1, 1005, 1), rec(1, 1006, 2), rec(1, 1007, 3)))
	f.Add(true, uint16(math.MaxUint16), seq(rec(0, 1, 1), rec(1, 2, 2), rec(2, 3, 3), rec(0, 4, 4)))
	f.Fuzz(func(t *testing.T, notices bool, capSel uint16, data []byte) {
		const ranks = 3
		c, recordSize := Codec{KindBits: 2}, 17
		if notices {
			c, recordSize = Codec{}, 2*binary.MaxVarintLen32
		}
		maxBytes := recordSize + int(capSel)%(64<<10-recordSize+1)
		var recs []codecRecord
		table := 0
		for ; len(data) >= 9; data = data[9:] {
			r := codecRecord{
				to:    int(data[0]) % ranks,
				index: int32(binary.LittleEndian.Uint32(data[1:]) & math.MaxInt32),
				x:     binary.LittleEndian.Uint32(data[5:]),
			}
			if c.KindBits > 0 {
				r.x &= 1<<c.KindBits - 1
			}
			recs = append(recs, r)
			table = max(table, int(r.index)+1)
		}
		want := make([][]codecRecord, ranks)
		for _, r := range recs {
			want[r.to] = append(want[r.to], codecRecord{index: r.index, x: r.x})
		}

		// Where the plain layout's bundles end: record counts per bundle.
		wantSplit := make([][]int, ranks)
		plain, n := make([]int, ranks), make([]int, ranks)
		for _, r := range recs {
			plain[r.to] += len(plainRecord(c, r))
			if n[r.to]++; plain[r.to]+recordSize > maxBytes {
				wantSplit[r.to] = append(wantSplit[r.to], n[r.to])
				plain[r.to], n[r.to] = 0, 0
			}
		}
		for to := range n {
			if n[to] > 0 {
				wantSplit[to] = append(wantSplit[to], n[to])
			}
		}

		// The bundler: rank 0 sends, everyone walks what it got.
		got := make([][][]codecRecord, ranks)
		err := Run(ranks, func(comm *Comm) error {
			if comm.Rank() == 0 {
				b := NewBundler(comm, 1, recordSize, maxBytes)
				for _, r := range recs {
					b.AddIndexed(r.to, c, r.index, r.x)
				}
				b.Flush()
				if b.Records != int64(len(recs)) {
					return fmt.Errorf("bundler counts %d records, %d added", b.Records, len(recs))
				}
			}
			comm.Barrier() // everything rank 0 sent has arrived
			me := comm.Rank()
			for {
				m, ok := comm.TryRecv()
				if !ok {
					return nil
				}
				walked := walkAll(c, m.Data, table)
				if len(walked) == 0 {
					return fmt.Errorf("rank %d: empty bundle", me)
				}
				if first := plainRecord(c, codecRecord{index: walked[0].index, x: walked[0].x}); len(walked) == 1 && !slices.Equal(m.Data, first) {
					return fmt.Errorf("rank %d: lone record %x, plain layout %x", me, m.Data, first)
				}
				got[me] = append(got[me], walked)
			}
		}, WithDeadline(20*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		for to := range ranks {
			var flat []codecRecord
			var split []int
			for _, msg := range got[to] {
				flat, split = append(flat, msg...), append(split, len(msg))
			}
			if !slices.Equal(flat, want[to]) {
				t.Fatalf("cap %d, to %d: bundles walk back to %v, want %v", maxBytes, to, flat, want[to])
			}
			if !slices.Equal(split, wantSplit[to]) {
				t.Fatalf("cap %d, to %d: bundles of %v records, the plain layout's are %v", maxBytes, to, split, wantSplit[to])
			}
		}

		// The direct encoder: one message per destination.
		for to := range ranks {
			var msg []byte
			var prev int32
			for _, r := range want[to] {
				msg, prev = c.Append(msg, prev, r.index, r.x), r.index
			}
			if len(msg) > len(want[to])*recordSize {
				t.Fatalf("%d records coded in %d bytes, past %d each", len(want[to]), len(msg), recordSize)
			}
			if walked := walkAll(c, msg, table); !slices.Equal(walked, want[to]) {
				t.Fatalf("to %d: message %x walks back to %v, want %v", to, msg, walked, want[to])
			}
		}
	})
}

// TestCodecWalkRefusals reaches each of the walker's refusals and checks its
// panic text: a record cut short, a running index below 0, and one past the
// table, both as a first record and by a difference.
func TestCodecWalkRefusals(t *testing.T) {
	kinds, notices := Codec{KindBits: 2}, Codec{}
	word := func(b []byte, z uint64) []byte { return binary.AppendUvarint(b, z) }
	tests := []struct {
		name string
		c    Codec
		msg  []byte
		n    int
		want string
	}{
		{"cut short", kinds, []byte{0x80}, 5,
			"mpi: record 0 of a 1-byte message with tag 7 from rank 2 is cut short or overlong"},
		{"cut short after a record", notices, append(notices.Append(nil, 0, 3, 9), 1), 5,
			"mpi: record 1 of a 3-byte message with tag 7 from rank 2 is cut short or overlong"},
		{"overlong", kinds, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, 5,
			"mpi: record 0 of a 10-byte message with tag 7 from rank 2 is cut short or overlong"},
		{"color beyond 32 bits", notices, word([]byte{0}, 1<<32), 5,
			"mpi: record 0 of a 6-byte message with tag 7 from rank 2 is cut short or overlong"},
		{"below 0", kinds, word(kinds.Append(nil, 0, 1, 0), 3<<2), 5, // 1 - 2
			"mpi: record 1 of a 2-byte message with tag 7 from rank 2 moves index 1 by -2, below 0"},
		{"first past the table", notices, notices.Append(nil, 0, 5, 0), 5,
			"mpi: record 0 of a 2-byte message with tag 7 from rank 2 names index 5, past the table of 5"},
		{"past the table", kinds, word(kinds.Append(nil, 0, 4, 1), 2<<2), 5, // 4 + 1
			"mpi: record 1 of a 2-byte message with tag 7 from rank 2 moves index 4 by 1, past the table of 5"},
		{"empty table", notices, notices.Append(nil, 0, 0, 0), 0,
			"mpi: record 0 of a 2-byte message with tag 7 from rank 2 names index 0, past the table of 0"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); fmt.Sprint(p) != tc.want {
					t.Errorf("walk of %x panicked with\n  %v\nwant\n  %s", tc.msg, p, tc.want)
				}
			}()
			w := tc.c.Walk(2, 7, tc.msg, tc.n)
			for w.Next() {
			}
		})
	}
}

// TestCodecDifferences pins the layout on a bundle's worth of records: the
// first names its index plain, the later ones the zig-zag difference, so a
// run of neighbouring indices costs a byte a record where the plain layout
// spends two or three.
func TestCodecDifferences(t *testing.T) {
	kinds := Codec{KindBits: 2}
	var msg []byte
	var prev int32
	for i, index := range []int32{1000, 1001, 1003, 1002, 1000} {
		msg, prev = kinds.Append(msg, prev, index, uint32(i%4)), index
	}
	want := []byte{
		0xa0, 0x1f, // 1000<<2 | 0
		2<<2 | 1, // +1 → z 2
		4<<2 | 2, // +2 → z 4
		1<<2 | 3, // -1 → z 1
		3<<2 | 0, // -2 → z 3
	}
	if !slices.Equal(msg, want) {
		t.Fatalf("coded %x, want %x", msg, want)
	}
	back := []codecRecord{{index: 1000, x: 0}, {index: 1001, x: 1}, {index: 1003, x: 2}, {index: 1002, x: 3}, {index: 1000, x: 0}}
	if got := walkAll(kinds, msg, 1004); !slices.Equal(got, back) {
		t.Fatalf("walked %v, want %v", got, back)
	}
}
