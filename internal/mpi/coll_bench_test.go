package mpi

import (
	"fmt"
	"testing"
)

// The Coll* micro-benchmarks time one collective per iteration on the
// in-process world — the shared-memory bodies every BENCHMARK.json workload
// runs. Compare across commits with -cpu 2 -count=10.

func benchColl(b *testing.B, op func(c *Comm)) {
	for _, p := range []int{4, 8} {
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
