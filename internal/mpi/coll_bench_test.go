package mpi

import (
	"fmt"
	"testing"
)

// The Coll* micro-benchmarks time one collective per iteration on the
// in-process world at 4 to 64 ranks, where each is a message exchange
// through the ranks' mailboxes, as in every BENCHMARK.json workload: an
// all-to-all is P(P−1) messages, the rooted Gather P − 1. Compare across
// commits with -cpu 2 -count=10.

func benchColl(b *testing.B, op func(c *Comm)) {
	for _, p := range []int{4, 8, 16, 64} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			err := Run(p, func(c *Comm) error {
				for i := 0; i < b.N; i++ {
					op(c)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkCollBarrier(b *testing.B) {
	benchColl(b, func(c *Comm) { c.Barrier() })
}

func BenchmarkCollAllreduce(b *testing.B) {
	benchColl(b, func(c *Comm) { c.AllreduceInt64(int64(c.Rank()), OpSum) })
}

func BenchmarkCollAllgather(b *testing.B) {
	quarter := make([]byte, 256<<10)
	benchColl(b, func(c *Comm) { c.Allgather(quarter) })
}

// BenchmarkCollGather's ranks but 0 do not wait for each other, so the loop
// times rank 0's fan-in.
func BenchmarkCollGather(b *testing.B) {
	quarter := make([]byte, 256<<10)
	benchColl(b, func(c *Comm) { c.Gather(quarter) })
}
