package matching

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// TestPrecedesIsOneOrder pins the order's two spellings against each other:
// for edges out of one vertex, the shared-endpoint form agrees with the full
// rule wherever the shared endpoint falls, and ties in weight fall to labels.
func TestPrecedesIsOneOrder(t *testing.T) {
	for v := int64(0); v < 5; v++ {
		for a := int64(0); a < 5; a++ {
			for b := int64(0); b < 5; b++ {
				if a == v || b == v || a == b {
					continue
				}
				for _, w := range [][2]float64{{1, 1}, {2, 1}, {1, 2}} {
					full := precedes(w[0], v, a, w[1], b, v)
					if got := better(w[0], a, w[1], b); got != full {
						t.Fatalf("v=%d: better(%g,%d,%g,%d) = %v, precedes says %v", v, w[0], a, w[1], b, got, full)
					}
					if full == precedes(w[1], v, b, w[0], v, a) {
						t.Fatalf("v=%d a=%d b=%d w=%v: order is not strict", v, a, b, w)
					}
				}
			}
		}
	}
}

// crossEdgeShares distributes a single edge over two ranks: each rank's only
// vertex must hear from the other before it can decide.
func crossEdgeShares(t *testing.T) []*dgraph.DistGraph {
	t.Helper()
	g, err := graph.BuildUndirected(2, []graph.Edge{{U: 0, V: 1, W: 1}}, graph.DedupeFirst)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, &partition.Partition{P: 2, Part: []int32{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return shares
}

// TestKernelsRefuseForeignFamily: a bundle of a tag family the running kernel
// does not speak is a protocol violation, not something to park. Each rank
// plants the foreign bundle at its peer before the kernel starts, so per-pair
// FIFO puts it ahead of the kernel's own traffic.
func TestKernelsRefuseForeignFamily(t *testing.T) {
	shares := crossEdgeShares(t)
	for _, tc := range []struct {
		name    string
		foreign int
		run     func(c *mpi.Comm) error
	}{
		{"async gets a color notice", mpi.TagColorBase, func(c *mpi.Comm) error {
			_, err := Parallel(c, shares[c.Rank()], ParallelOptions{})
			return err
		}},
	} {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			c.Send(1-c.Rank(), tc.foreign, make([]byte, RecordBytes))
			return tc.run(c)
		}, mpi.WithDeadline(10*time.Second))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("with tag %d", tc.foreign)) {
			t.Errorf("%s: err = %v, want a refusal of tag %d", tc.name, err, tc.foreign)
		}
	}
}
