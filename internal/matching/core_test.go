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
