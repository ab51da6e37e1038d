package coloring

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// FuzzNoticeWalk has a rank send arbitrary bytes as a color or a RECOLOR
// bundle to rank 0 of a 6 × 6 grid cut into three strips — rank 1 its one
// neighbor, rank 2 none — and rank 0 drain it. The drain ends cleanly, having
// touched only ghosts of the sender (or, for a RECOLOR, vertices shown to
// it), or in the protocol panic; never in an index out of range, never in a
// color on an owned vertex, and never without consuming the bundle.
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
	table := int32(len(d.PairWith(1).Ghosts)) // as many shown vertices: every boundary vertex has one neighbor over there
	notices := func(pairs ...int32) []byte {
		var b []byte
		for i := 0; i < len(pairs); i += 2 {
			b = appendNotice(b, pairs[i], pairs[i+1])
		}
		return b
	}
	f.Add(false, false, []byte{})
	f.Add(false, false, notices(0, 3, table-1, 0))
	f.Add(false, false, notices(table, 2, 1, 1)) // FIAB's "not adjacent to you", then a real one
	f.Add(false, false, notices(table+1, 2))     // past even that
	f.Add(true, false, notices(0, 5))            // a non-neighbor may only say "not adjacent"
	f.Add(true, false, notices(1, 5))
	f.Add(false, true, notices(table-1, 4))
	f.Add(false, true, notices(table, 4)) // a RECOLOR has no "elsewhere"
	f.Add(true, true, notices(0, 4))
	f.Add(false, false, []byte{0x00})                               // index without a color
	f.Add(false, false, append(notices(0, 1), 0x80))                // cut short after a whole notice
	f.Add(false, true, append(notices(2, 1), 1, 0xff))              // cut short inside the color
	f.Add(false, false, []byte{0x01, 0xff, 0xff, 0xff, 0xff, 0x7f}) // color beyond 32 bits
	f.Add(false, false, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00})
	f.Fuzz(func(t *testing.T, stranger, recolor bool, bundle []byte) {
		sender, tag := 1, colorTag
		if stranger {
			sender = 2
		}
		if recolor {
			tag = recolorTag
		}
		err := mpi.Run(3, func(c *mpi.Comm) error {
			s, err := newColorState(c, shares[c.Rank()])
			if err != nil {
				return err
			}
			if c.Rank() == sender {
				c.Send(0, tag, append([]byte(nil), bundle...))
			}
			c.Barrier()
			if c.Rank() != 0 {
				return nil
			}
			s.onRecolor = func(v, color int32) {
				if v < 0 || int(v) >= d.NLocal || !d.IsBoundary[v] || sender != 1 {
					t.Errorf("RECOLOR from rank %d handed the kernel vertex %d", sender, v)
				}
			}
			s.drain()
			// One array holds owned and ghost colors: a bad table entry would
			// color an owned slot here rather than fail an index check.
			for v, col := range s.color[:d.NLocal] {
				if col != -1 {
					t.Errorf("bundle with tag %d from rank %d colored owned vertex %d", tag, sender, v)
				}
			}
			for gi, col := range s.color[d.NLocal:] {
				if col != -1 && (recolor || sender != int(d.GhostOwner[gi])) {
					t.Errorf("bundle with tag %d from rank %d colored ghost slot %d of rank %d", tag, sender, gi, d.GhostOwner[gi])
				}
			}
			if _, pending := c.TryRecv(); pending {
				t.Error("drain left a message behind")
			}
			return nil
		}, mpi.WithDeadline(10*time.Second))
		if err != nil && !strings.Contains(err.Error(), "coloring: rank 0: notice ") {
			t.Fatalf("bundle %x with tag %d from rank %d: %v", bundle, tag, sender, err)
		}
	})
}
