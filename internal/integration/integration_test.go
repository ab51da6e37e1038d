// Package integration_test drives randomized end-to-end runs across every
// module boundary: generator → partitioner → distributed graph → both
// distributed algorithms → global verification, under randomized message
// delivery. Each run checks the full invariant set:
//
//   - the parallel matching equals the sequential locally-dominant matching
//     (and hence is valid, maximal, and weight-invariant in p);
//   - the parallel coloring is proper, complete, and within Δ+1;
//   - partitions cover the graph and the distributed views are consistent.
package integration_test

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/partition"
)

// scenario describes one randomized end-to-end configuration.
type scenario struct {
	name    string
	graph   func(seed uint64) (*graph.Graph, error)
	part    func(g *graph.Graph, p int, seed uint64) (*partition.Partition, error)
	p       int
	perturb uint64
}

func scenarios() []scenario {
	return []scenario{
		{
			name:  "grid/uniform2d/p4",
			graph: func(s uint64) (*graph.Graph, error) { return gen.Grid2D(24, 24, true, s) },
			part: func(g *graph.Graph, p int, s uint64) (*partition.Partition, error) {
				return partition.Grid2D(24, 24, 2, 2)
			},
			p: 4,
		},
		{
			name:  "grid/random-partition/p6/perturbed",
			graph: func(s uint64) (*graph.Graph, error) { return gen.Grid2D(20, 20, true, s) },
			part: func(g *graph.Graph, p int, s uint64) (*partition.Partition, error) {
				return partition.Random(g, p, s)
			},
			p:       6,
			perturb: 99,
		},
		{
			name:  "er/bfs/p5",
			graph: func(s uint64) (*graph.Graph, error) { return gen.ErdosRenyi(250, 1200, true, s) },
			part: func(g *graph.Graph, p int, s uint64) (*partition.Partition, error) {
				return partition.BFS(g, p, s)
			},
			p: 5,
		},
		{
			name:  "rmat/multilevel/p7/perturbed",
			graph: func(s uint64) (*graph.Graph, error) { return gen.RMAT(8, 6, true, s) },
			part: func(g *graph.Graph, p int, s uint64) (*partition.Partition, error) {
				return partition.Multilevel(g, p, partition.MultilevelOptions{Seed: s})
			},
			p:       7,
			perturb: 7,
		},
		{
			name:  "circuit/multilevel-norefine/p8",
			graph: func(s uint64) (*graph.Graph, error) { return gen.Circuit(22, 22, 0.45, true, s) },
			part: func(g *graph.Graph, p int, s uint64) (*partition.Partition, error) {
				return partition.Multilevel(g, p, partition.MultilevelOptions{Seed: s, NoRefine: true})
			},
			p: 8,
		},
		{
			name:  "geometric/block1d/p3",
			graph: func(s uint64) (*graph.Graph, error) { return gen.Geometric(300, 0.09, true, s) },
			part: func(g *graph.Graph, p int, s uint64) (*partition.Partition, error) {
				return partition.Block1D(g, p)
			},
			p: 3,
		},
	}
}

func runScenario(t *testing.T, sc scenario, seed uint64) {
	t.Helper()
	g, err := sc.graph(seed)
	if err != nil {
		t.Fatalf("graph: %v", err)
	}
	part, err := sc.part(g, sc.p, seed)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if err := part.Validate(g); err != nil {
		t.Fatalf("partition invalid: %v", err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatalf("distribute: %v", err)
	}
	for r, d := range shares {
		if err := d.Validate(); err != nil {
			t.Fatalf("share %d invalid: %v", r, err)
		}
	}
	var opts []mpi.Option
	opts = append(opts, mpi.WithDeadline(60*time.Second))
	if sc.perturb != 0 {
		opts = append(opts, mpi.WithPerturbation(sc.perturb+seed))
	}

	mResults := make([]*matching.ParallelResult, part.P)
	cResults := make([]*coloring.ParallelResult, part.P)
	var mu sync.Mutex
	err = mpi.Run(part.P, func(c *mpi.Comm) error {
		mr, err := matching.Parallel(c, shares[c.Rank()], matching.ParallelOptions{})
		if err != nil {
			return fmt.Errorf("matching: %w", err)
		}
		c.Barrier()
		cr, err := coloring.Parallel(c, shares[c.Rank()], coloring.ParallelOptions{
			Seed: seed, SuperstepSize: 64,
		})
		if err != nil {
			return fmt.Errorf("coloring: %w", err)
		}
		mu.Lock()
		mResults[c.Rank()] = mr
		cResults[c.Rank()] = cr
		mu.Unlock()
		return nil
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}

	// Matching invariants.
	mates, err := matching.Gather(shares, mResults)
	if err != nil {
		t.Fatalf("gather matching: %v", err)
	}
	if err := mates.VerifyMaximal(g); err != nil {
		t.Fatalf("matching invalid: %v", err)
	}
	seq := matching.LocallyDominant(g)
	for v := range seq {
		if mates[v] != seq[v] {
			t.Fatalf("vertex %d: parallel mate %d, sequential %d", v, mates[v], seq[v])
		}
	}

	// Coloring invariants.
	colors, err := coloring.Gather(shares, cResults)
	if err != nil {
		t.Fatalf("gather coloring: %v", err)
	}
	if err := colors.Verify(g); err != nil {
		t.Fatalf("coloring invalid: %v", err)
	}
	if colors.NumColors() > g.MaxDegree()+1 {
		t.Fatalf("coloring used %d colors, Δ+1 = %d", colors.NumColors(), g.MaxDegree()+1)
	}
}

func TestEndToEndScenarios(t *testing.T) {
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				runScenario(t, sc, seed)
			}
		})
	}
}

// TestEndToEndMatchingThenColoringReuse runs both algorithms back-to-back in
// one world over many seeds — the kind of pipeline a real application (e.g.
// coarsening with matchings, then coloring the coarse graph) performs.
func TestEndToEndPipelineInOneWorld(t *testing.T) {
	g, err := gen.Grid2D(30, 30, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Grid2D(30, 30, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	// Three rounds of matching + coloring in the same world must not leak
	// messages between phases.
	err = mpi.Run(part.P, func(c *mpi.Comm) error {
		for round := 0; round < 3; round++ {
			if _, err := matching.Parallel(c, shares[c.Rank()], matching.ParallelOptions{}); err != nil {
				return err
			}
			c.Barrier()
			if _, err := coloring.Parallel(c, shares[c.Rank()], coloring.ParallelOptions{Seed: uint64(round)}); err != nil {
				return err
			}
			c.Barrier()
		}
		return nil
	}, mpi.WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestWeightInvarianceSweep verifies the paper's Section 5.2 observation
// across a sweep of partitioners and rank counts on one graph.
func TestWeightInvarianceSweep(t *testing.T) {
	g, err := gen.Circuit(25, 25, 0.45, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := matching.LocallyDominant(g).Weight(g)
	for _, p := range []int{1, 2, 3, 4, 6, 8} {
		for _, mk := range []func() (*partition.Partition, error){
			func() (*partition.Partition, error) { return partition.Block1D(g, p) },
			func() (*partition.Partition, error) { return partition.BFS(g, p, uint64(p)) },
			func() (*partition.Partition, error) { return partition.Random(g, p, uint64(p)) },
		} {
			part, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			shares, err := dgraph.Distribute(g, part)
			if err != nil {
				t.Fatal(err)
			}
			results := make([]*matching.ParallelResult, p)
			var mu sync.Mutex
			err = mpi.Run(p, func(c *mpi.Comm) error {
				r, err := matching.Parallel(c, shares[c.Rank()], matching.ParallelOptions{})
				if err != nil {
					return err
				}
				mu.Lock()
				results[c.Rank()] = r
				mu.Unlock()
				return nil
			}, mpi.WithDeadline(60*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			mates, err := matching.Gather(shares, results)
			if err != nil {
				t.Fatal(err)
			}
			if got := mates.Weight(g); got != want {
				t.Fatalf("p=%d: weight %g, want %g", p, got, want)
			}
		}
	}
}

// shareDigest hashes every field of every share, the pair tables included:
// %+v walks a struct's fields and slices by itself, so a field added to
// DistGraph later is covered without anyone remembering to.
func shareDigest(shares []*dgraph.DistGraph) [sha256.Size]byte {
	h := sha256.New()
	for _, d := range shares {
		fmt.Fprintf(h, "%+v\n", *d)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestSharesAreReadOnly pins what lets the daemon hand one retained share set
// to any number of jobs, two at once included: no distributed kernel writes
// to its share. Every variant runs on the same shares, on a world that
// perturbs message delivery, and the shares hash the same afterwards.
func TestSharesAreReadOnly(t *testing.T) {
	g, err := gen.RMAT(8, 6, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	const p = 5
	part, err := partition.Multilevel(g, p, partition.MultilevelOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	before := shareDigest(shares)
	if other, err := dgraph.Distribute(g, part); err != nil || shareDigest(other) != before {
		t.Fatalf("a second Distribute of the same (graph, partition) hashes differently (err %v): the digest sees addresses", err)
	}
	color := func(opt coloring.ParallelOptions) func(*mpi.Comm, *dgraph.DistGraph) error {
		return func(c *mpi.Comm, d *dgraph.DistGraph) error {
			_, err := coloring.Parallel(c, d, opt)
			return err
		}
	}
	for _, k := range []struct {
		name string
		run  func(*mpi.Comm, *dgraph.DistGraph) error
	}{
		{"match bundled", func(c *mpi.Comm, d *dgraph.DistGraph) error {
			_, err := matching.Parallel(c, d, matching.ParallelOptions{})
			return err
		}},
		{"match no-bundle", func(c *mpi.Comm, d *dgraph.DistGraph) error {
			_, err := matching.Parallel(c, d, matching.ParallelOptions{MaxBundleBytes: matching.RecordBytes})
			return err
		}},
		{"color NEW", color(coloring.ParallelOptions{CommMode: coloring.CommNeighbors, SuperstepSize: 16, Seed: 3})},
		{"color FIAC", color(coloring.ParallelOptions{CommMode: coloring.CommCustomizedAll, SuperstepSize: 16, Seed: 3})},
		{"color FIAB", color(coloring.ParallelOptions{CommMode: coloring.CommBroadcast, SuperstepSize: 16, Seed: 3})},
		{"distance-2", func(c *mpi.Comm, d *dgraph.DistGraph) error {
			_, err := coloring.ParallelDistance2(c, d, coloring.ParallelOptions{SuperstepSize: 16, Seed: 3})
			return err
		}},
		{"jones-plassmann", func(c *mpi.Comm, d *dgraph.DistGraph) error {
			_, err := coloring.JonesPlassmann(c, d, 3, 0)
			return err
		}},
	} {
		err := mpi.Run(p, func(c *mpi.Comm) error { return k.run(c, shares[c.Rank()]) },
			mpi.WithDeadline(60*time.Second), mpi.WithPerturbation(17))
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if shareDigest(shares) != before {
			t.Fatalf("%s wrote to its share", k.name)
		}
	}
}
