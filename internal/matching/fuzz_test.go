package matching

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// FuzzRecordWalk feeds arbitrary bytes, as a bundle from an arbitrary rank,
// through link.receive on rank 1 of a 6 × 6 grid cut into three strips — two
// neighbors, so a rank that is one, one that is not, and ranks that do not
// exist. The walk ends cleanly, handing the kernel only edges the share holds
// between an owned vertex and a ghost of the sender, or in the protocol panic;
// never in an index out of range, and never without consuming the bundle.
func FuzzRecordWalk(f *testing.F) {
	g, err := gen.Grid2D(6, 6, true, 1)
	if err != nil {
		f.Fatal(err)
	}
	part, err := partition.Block1D(g, 3)
	if err != nil {
		f.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		f.Fatal(err)
	}
	d := shares[1]
	record := func(edge, kind uint64) []byte { return binary.AppendUvarint(nil, edge<<kindBits|kind) }
	last := uint64(len(d.PairWith(0).Edges) - 1)
	f.Add(int8(0), []byte{})
	f.Add(int8(0), append(record(0, msgRequest), record(last, msgFailed)...))
	f.Add(int8(2), append(record(last, msgSucceeded), record(last, 3)...))
	f.Add(int8(0), record(last+1, msgRequest))                                         // one past the table
	f.Add(int8(1), record(0, msgRequest))                                              // from itself: no table
	f.Add(int8(-1), record(0, msgRequest))                                             // from no rank
	f.Add(int8(3), record(0, msgRequest))                                              // from no rank
	f.Add(int8(0), []byte{0x80})                                                       // cut short
	f.Add(int8(0), append(record(1, msgRequest), 0xff, 0xff))                          // cut short after a whole record
	f.Add(int8(2), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // overflows 64 bits
	f.Add(int8(2), binary.AppendUvarint(nil, 1<<63))
	f.Fuzz(func(t *testing.T, from int8, bundle []byte) {
		var walked int
		err := mpi.Run(3, func(c *mpi.Comm) error {
			if c.Rank() != 1 {
				return nil
			}
			r, err := newRank(c, d, ParallelOptions{})
			if err != nil {
				return err
			}
			l := r.newLink(matchTag)
			// receive owns the buffer it is handed (it recycles it).
			l.receive(mpi.Message{From: int(from), Tag: matchTag, Data: append([]byte(nil), bundle...)}, func(kind byte, v, u int32) {
				walked++
				if kind >= 1<<kindBits || v < 0 || int(v) >= d.NLocal || !d.IsGhost(u) || int(u) >= d.NLocal+d.NGhost || d.OwnerOf(u) != int(from) {
					t.Errorf("walk handed the kernel kind %d, v %d, u %d from rank %d", kind, v, u, from)
				}
				if !slices.Contains(d.Neighbors(v), u) {
					t.Errorf("walk handed the kernel {%d,%d}, which is no edge of the share", v, u)
				}
			})
			return nil
		}, mpi.WithDeadline(10*time.Second))
		if err != nil && !strings.Contains(err.Error(), "matching: rank 1: record ") {
			t.Fatalf("bundle %x from rank %d: %v", bundle, from, err)
		}
		if err == nil {
			// A clean walk found one record per terminating byte.
			records := 0
			for _, b := range bundle {
				if b < 0x80 {
					records++
				}
			}
			if walked != records {
				t.Fatalf("bundle %x from rank %d: walked %d records, the bundle holds %d", bundle, from, walked, records)
			}
		}
	})
}
