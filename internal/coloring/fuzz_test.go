package coloring

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// FuzzNoticeWalk hands rank 0 of a 6 × 6 grid cut into three strips — rank 1
// its one neighbor, rank 2 none — arbitrary bytes from one of them: as a color
// bundle, which rank 0 drains after the round's fence exchange, or as that
// rank's RECOLOR exchange payload, which rank 0's distance-2 kernel walks. The
// walk ends cleanly, having touched only ghosts of the sender (or, for a
// RECOLOR, vertices shown to it), or in the protocol panic; never in an index
// out of range, never in a color on an owned vertex, and never without
// consuming the bundle. The protocol panic is the codec walker's.
func FuzzNoticeWalk(f *testing.F) {
	g, err := gen.Grid2D(6, 6, false, 0)
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
	d := shares[0]
	lo, hi := d.GhostsOf(1)
	table := hi - lo // as many shown vertices: every boundary vertex has one neighbor over there
	// notices codes (index, color) pairs as the kernels do; raw appends a
	// notice as is, whatever it says.
	notices := func(pairs ...int32) []byte {
		var b []byte
		for i := 0; i < len(pairs); i += 2 {
			var prev int32
			if i > 0 {
				prev = pairs[i-2]
			}
			b = noticeCodec.Append(b, prev, pairs[i], uint32(pairs[i+1]))
		}
		return b
	}
	raw := func(b []byte, z, color uint64) []byte { return binary.AppendUvarint(binary.AppendUvarint(b, z), color) }
	f.Add(false, false, []byte{})
	f.Add(false, false, notices(0, 3, table-1, 0))
	f.Add(false, false, notices(table-1, 3, 0, 1, 2, 2)) // a negative difference
	f.Add(false, false, notices(table, 2, 1, 1))         // FIAB's "not adjacent to you", then a real one
	f.Add(false, false, notices(1, 2, table, 1, table, 3))
	f.Add(false, false, notices(table+1, 2))                      // past even that
	f.Add(false, false, raw(notices(1, 2), 3, 1))                 // 1 - 2: below 0
	f.Add(false, false, raw(notices(0, 2), 2*uint64(table+1), 1)) // 0 + table + 1: past even FIAB's
	f.Add(true, false, notices(0, 5))                             // a non-neighbor may only say "not adjacent"
	f.Add(true, false, notices(1, 5))
	f.Add(false, true, notices(table-1, 4, 0, 2, table-1, 6))
	f.Add(false, true, notices(table, 4))                              // a RECOLOR has no "elsewhere"
	f.Add(false, true, raw(notices(0, 4), 2*uint64(table), 1))         // nor reaches it by a difference
	f.Add(false, true, raw(notices(table-1, 4), 2*uint64(table)-1, 1)) // table-1 - table: below 0
	f.Add(true, true, notices(0, 4))
	f.Add(false, false, []byte{0x00})                               // index without a color
	f.Add(false, false, append(notices(0, 1), 0x80))                // cut short after a whole notice
	f.Add(false, true, append(notices(2, 1), 1, 0xff))              // cut short inside the color
	f.Add(false, false, []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x7f}) // color beyond 32 bits
	f.Add(false, false, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00})
	f.Fuzz(func(t *testing.T, stranger, recolor bool, bundle []byte) {
		sender := 1
		if stranger {
			sender = 2
		}
		if recolor {
			walkRecolors(t, d, sender, bundle)
			return
		}
		err := mpi.Run(3, func(c *mpi.Comm) error {
			s, err := newColorState(c, shares[c.Rank()])
			if err != nil {
				return err
			}
			if c.Rank() != 0 {
				if c.Rank() == sender {
					c.Send(0, colorTag, append([]byte(nil), bundle...))
				}
				c.NeighborExchange(colorTag, []int{0}, [][]byte{nil})
				return nil
			}
			s.peers = []int{1, 2}
			s.drain(c.NeighborExchange(colorTag, s.peers, [][]byte{nil, nil}))
			// One array holds owned and ghost colors: a bad table entry would
			// color an owned slot here rather than fail an index check.
			for v, col := range s.color[:d.NLocal] {
				if col != -1 {
					t.Errorf("bundle from rank %d colored owned vertex %d", sender, v)
				}
			}
			for l := int32(d.NLocal); int(l) < len(s.color); l++ {
				if col := s.color[l]; col != -1 && sender != d.OwnerOf(l) {
					t.Errorf("bundle from rank %d colored ghost %d of rank %d", sender, l, d.OwnerOf(l))
				}
			}
			if _, pending := c.TryRecv(); pending {
				t.Error("drain left a message behind")
			}
			return nil
		}, mpi.WithDeadline(10*time.Second))
		if err != nil && !strings.Contains(err.Error(), "mpi: rank 0 panicked: mpi: record ") {
			t.Fatalf("bundle %x from rank %d: %v", bundle, sender, err)
		}
	})
}

// walkRecolors has rank 0's distance-2 kernel walk a RECOLOR payload from
// sender and checks that it named vertices shown to the sender only, or
// stopped in the protocol panic.
func walkRecolors(t *testing.T, d *dgraph.DistGraph, sender int, payload []byte) {
	defer func() {
		if p := recover(); p != nil && !strings.HasPrefix(fmt.Sprint(p), "mpi: record ") {
			t.Fatalf("RECOLOR payload %x from rank %d: %v", payload, sender, p)
		}
	}()
	shown := d.PairWith(sender).Shown
	k := &d2Kernel{colorState: &colorState{d: d}}
	k.takeRecolors(sender, payload, func(v, _ int32) {
		if !slices.Contains(shown, v) {
			t.Errorf("RECOLOR from rank %d named vertex %d, not shown to it", sender, v)
		}
	})
}
