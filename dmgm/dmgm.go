// Package dmgm (distributed-memory graph matching and coloring) is the
// public API of this repository — a Go reproduction of Çatalyürek, Dobrian,
// Gebremedhin, Halappanavar and Pothen, "Distributed-Memory Parallel
// Algorithms for Matching and Coloring" (IPDPS Workshops, 2011).
//
// The package re-exports the graph substrate, the sequential algorithms and
// one way to run the distributed ones:
//
//   - Match — the ½-approximate edge-weighted matching by locally dominant
//     edges; MatchExactBipartite — the exact maximum-weight bipartite
//     reference; Color — greedy distance-1 coloring over the ColPack
//     orderings.
//   - Solve and RunJob — every distributed run, named by a Job: the matching
//     (REQUEST / SUCCEEDED / FAILED message protocol with aggressive
//     bundling), the speculative iterative coloring (FIAB / FIAC /
//     neighbor-customized communication, distance 1 or 2) and the
//     Jones–Plassmann baseline. Both return one JobResult: the gathered
//     vector, its verified text and the summary numbers.
//
// A distributed run is handed a Placement — a partition and the shares Place
// cuts by it — and a world of ranks over the in-process message-passing
// runtime (internal/mpi, this repository's substitute for MPI; see DESIGN.md
// for the substitution inventory) or over a wire transport. RunJob takes a
// job through run, verification and text serialization on the world it is
// given; it is what the CLIs and the daemon call (DESIGN.md §9). Solve is
// Place, then RunJob on a fresh in-process world with one goroutine rank per
// part — what the examples under examples/ call.
package dmgm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/order"
	"repro/internal/partition"
)

// Graph types.
type (
	// Graph is a weighted undirected CSR graph.
	Graph = graph.Graph
	// Vertex indexes a vertex.
	Vertex = graph.Vertex
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
	// Bipartite is a bipartite graph (matrix view).
	Bipartite = graph.Bipartite
	// Entry is a sparse-matrix nonzero.
	Entry = graph.Entry
	// Partition maps vertices to processors.
	Partition = partition.Partition
	// Mates is a matching.
	Mates = matching.Mates
	// Colors is a vertex coloring.
	Colors = coloring.Colors
	// Ordering names a greedy-coloring vertex ordering.
	Ordering = order.Ordering
)

// None marks an absent vertex (e.g. an unmatched mate).
const None = graph.None

// Re-exported constructors and generators.
var (
	// NewGraph assembles a graph from an undirected edge list.
	NewGraph = func(n int, edges []Edge) (*Graph, error) {
		return graph.BuildUndirected(n, edges, graph.DedupeFirst)
	}
	// NewGraphSummed assembles a graph, summing the weights of parallel
	// edges — the convention used by multilevel coarsening.
	NewGraphSummed = func(n int, edges []Edge) (*Graph, error) {
		return graph.BuildUndirected(n, edges, graph.DedupeSum)
	}
	// NewBipartite assembles a bipartite graph from matrix entries.
	NewBipartite = func(nrows, ncols int, entries []Entry) (*Bipartite, error) {
		return graph.BuildBipartite(nrows, ncols, entries, graph.DedupeMax)
	}

	// Grid2D generates the paper's five-point grid model problem.
	Grid2D = gen.Grid2D

	// PartitionGrid2D, PartitionBFS and PartitionMultilevel distribute
	// vertices over processors.
	PartitionGrid2D = partition.Grid2D
	PartitionBFS    = partition.BFS
)

// PartitionMultilevel computes a METIS-like multilevel k-way partition.
// refine=false selects the unrefined (ParMETIS-quality) variant.
func PartitionMultilevel(g *Graph, p int, refine bool, seed uint64) (*Partition, error) {
	return partition.Multilevel(g, p, partition.MultilevelOptions{Seed: seed, NoRefine: !refine})
}

// OrderSmallestLast is the smallest-last vertex ordering for Color.
const OrderSmallestLast = order.SmallestLast

// Match computes the sequential locally-dominant ½-approximate matching.
func Match(g *Graph) Mates { return matching.LocallyDominant(g) }

// MatchExactBipartite computes the exact maximum-weight bipartite matching
// (the Table 1.1 quality reference).
func MatchExactBipartite(b *Bipartite) (Mates, error) { return matching.ExactBipartite(b) }

// Color greedily colors g in the given vertex ordering.
func Color(g *Graph, o Ordering, seed uint64) (Colors, error) {
	return coloring.Greedy(g, o, seed)
}

// VerifyColoringDistance2 checks a distance-2 coloring.
func VerifyColoringDistance2(g *Graph, c Colors) error {
	return coloring.VerifyDistance2(g, c)
}

// ColoringBounds returns simple lower/upper bounds on the chromatic number.
func ColoringBounds(g *Graph) (lower, upper int) { return coloring.Bounds(g) }

// MatchParallelOptions configures MatchParallelWorld.
type MatchParallelOptions struct {
	// BundleBytes caps the message-aggregation buffers (0 = 64 KiB). A
	// buffer ships once another record of matching.RecordBytes — the upper
	// bound on a record — might not fit, so matching.RecordBytes itself
	// disables the paper's bundling: one record per message.
	BundleBytes int
}

// MatchParallelWorld places g by part and runs the distributed matching on
// w: the kernel and the gather, with no verification and no text. Every
// process must call it with the same graph and partition; the result is
// returned on the process hosting rank 0 and is nil (with a nil error)
// elsewhere. Only the benchmark's API-overhead probe calls it; everything
// else runs a Job (Solve, RunJob).
func MatchParallelWorld(w *mpi.World, g *Graph, part *Partition, opt MatchParallelOptions) (*JobResult, error) {
	pl, err := placeFor(w, g, part)
	if err != nil {
		return nil, err
	}
	return matchPlaced(w, pl, opt.BundleBytes)
}

// matchPlaced runs the distributed matching on shares already cut, its
// bundles capped at bundleBytes, and fills a JobResult's matching half.
func matchPlaced(w *mpi.World, pl *Placement, bundleBytes int) (*JobResult, error) {
	return distributed(w, pl,
		func(c *mpi.Comm, d *dgraph.DistGraph, buf []byte) (*JobResult, []byte, error) {
			res, err := matching.Parallel(c, d, matching.ParallelOptions{MaxBundleBytes: bundleBytes})
			if err != nil {
				return nil, nil, err
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.LocalWeight))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(res.OuterIterations))
			return &JobResult{}, appendInts(buf, res.MateGlobal), nil
		},
		func(out *JobResult, shares []*dgraph.DistGraph, payloads [][]byte) (err error) {
			results := make([]*matching.ParallelResult, len(payloads))
			// The weights add in rank order onto −0, which adds nothing to
			// any float: the same bits on every run and every backend.
			out.Weight = math.Copysign(0, -1)
			for rank, p := range payloads {
				out.Weight += math.Float64frombits(word(p, 0))
				out.OuterIterations = max(out.OuterIterations, int64(word(p, 1)))
				results[rank] = &matching.ParallelResult{MateGlobal: decodeInts[int64](p[16:])}
			}
			out.Mates, err = matching.Gather(shares, results)
			return err
		})
}

// ColorParallelOptions configures ColorParallelWorld: the superstep size
// (0 = 1000), the communication mode and the seed of the speculative
// distance-1 coloring.
type ColorParallelOptions struct {
	SuperstepSize int
	CommMode      coloring.CommMode
	Seed          uint64
}

// ColorParallelWorld is MatchParallelWorld for the speculative distance-1
// coloring: place, kernel, gather.
func ColorParallelWorld(w *mpi.World, g *Graph, part *Partition, opt ColorParallelOptions) (*JobResult, error) {
	pl, err := placeFor(w, g, part)
	if err != nil {
		return nil, err
	}
	return colorDistributed(w, pl, distance1(coloring.ParallelOptions{
		SuperstepSize: opt.SuperstepSize, CommMode: opt.CommMode, Seed: opt.Seed}))
}

// colorKernel is what one rank of a coloring run executes on its share.
type colorKernel func(*mpi.Comm, *dgraph.DistGraph) (*coloring.ParallelResult, error)

// distance1 is the speculative distance-1 kernel under opt.
func distance1(opt coloring.ParallelOptions) colorKernel {
	return func(c *mpi.Comm, d *dgraph.DistGraph) (*coloring.ParallelResult, error) {
		return coloring.Parallel(c, d, opt)
	}
}

// colorDistributed is the driver of every coloring kernel — speculative
// distance-1 and distance-2, and the Jones–Plassmann baseline — which all
// hand back a coloring.ParallelResult per rank; it fills a JobResult's
// coloring half.
func colorDistributed(w *mpi.World, pl *Placement, kernel colorKernel) (*JobResult, error) {
	return distributed(w, pl,
		func(c *mpi.Comm, d *dgraph.DistGraph, buf []byte) (*JobResult, []byte, error) {
			res, err := kernel(c, d)
			if err != nil {
				return nil, nil, err
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Conflicts))
			// The color and round counts are the same on every rank.
			return &JobResult{Colors: res.NumColors, Rounds: res.Rounds}, appendInts(buf, res.Colors), nil
		},
		func(out *JobResult, shares []*dgraph.DistGraph, payloads [][]byte) (err error) {
			results := make([]*coloring.ParallelResult, len(payloads))
			for rank, p := range payloads {
				out.Conflicts += int64(word(p, 0))
				results[rank] = &coloring.ParallelResult{Colors: decodeInts[int32](p[8:])}
			}
			out.Coloring, err = coloring.Gather(shares, results)
			return err
		})
}

// Placement is a graph placed on ranks: a partition together with the
// per-rank shares cut from the graph by it — the already-distributed input
// the paper's kernels start from (Section 3.3). It is what every distributed
// run of this package is handed. Kernels only read their share, so one
// placement serves any number of runs, concurrent ones included
// (TestSharesAreReadOnly).
type Placement struct {
	part   *Partition
	shares []*dgraph.DistGraph
}

// Place cuts g into shares by part, validating part against g on the way.
// Outside the evaluation harness it is the one caller of dgraph.Distribute.
func Place(g *Graph, part *Partition) (*Placement, error) {
	shares, err := dgraph.Distribute(g, part)
	if err != nil {
		return nil, err
	}
	return &Placement{part: part, shares: shares}, nil
}

// Bytes is the resident size of the shares, the unit a holder of placements
// budgets them in.
func (pl *Placement) Bytes() int64 {
	var n int64
	for _, d := range pl.shares {
		n += d.Bytes()
	}
	return n
}

// cutFrom refuses, in O(1), a placement that was not cut from g: every share
// records the size of the graph it came from.
func (pl *Placement) cutFrom(g *Graph) error {
	if d := pl.shares[0]; d.GlobalN != int64(g.NumVertices()) || d.GlobalEdges != g.NumEdges() {
		return fmt.Errorf("dmgm: placement of a graph with %d vertices and %d edges for a graph with %d and %d",
			d.GlobalN, d.GlobalEdges, g.NumVertices(), g.NumEdges())
	}
	return nil
}

// fits is the free refusal that comes before any work on a world: it must
// have one rank per part.
func fits(w *mpi.World, part *Partition) error {
	if w.Size() != part.P {
		return fmt.Errorf("dmgm: world of %d ranks for a %d-way partition", w.Size(), part.P)
	}
	return nil
}

// placeFor is the "place, then run" of MatchParallelWorld and
// ColorParallelWorld: the world is checked against the partition before the
// shares are paid for.
func placeFor(w *mpi.World, g *Graph, part *Partition) (*Placement, error) {
	if err := fits(w, part); err != nil {
		return nil, err
	}
	return Place(g, part)
}

// distributed is the one driver every distributed run of this package is a
// kernel closure around: check the placement against the world, run kernel
// on every rank's share, Gather the ranks' payloads on rank 0 and assemble
// the global result there — the same path for in-process and wire-transport
// worlds. On a process that does not host rank 0 the result is nil with a
// nil error.
//
// A payload is a header of 8-byte little-endian words, then the rank's
// per-owned-vertex answer. kernel appends to buf its algorithm's words and
// its answer, and returns a partial result of what is identical on every
// rank; distributed then fills buf's first two words, the rank's sent
// messages and bytes. assemble, on rank 0, completes rank 0's partial result
// from every rank's payload past those two words, in rank order.
func distributed(w *mpi.World, pl *Placement,
	kernel func(c *mpi.Comm, d *dgraph.DistGraph, buf []byte) (*JobResult, []byte, error),
	assemble func(out *JobResult, shares []*dgraph.DistGraph, payloads [][]byte) error) (*JobResult, error) {
	if err := fits(w, pl.part); err != nil {
		return nil, err
	}
	var out *JobResult
	err := w.Run(func(c *mpi.Comm) error {
		partial, payload, err := kernel(c, pl.shares[c.Rank()], make([]byte, 16, 64))
		if err != nil {
			return err
		}
		snap := c.StatsSnapshot() // the Gather is uncounted, so this is final
		binary.LittleEndian.PutUint64(payload, uint64(snap.SentMsgs))
		binary.LittleEndian.PutUint64(payload[8:], uint64(snap.SentBytes))
		payloads := c.Gather(payload)
		if c.Rank() != 0 {
			return nil
		}
		out = partial
		for rank, p := range payloads {
			out.Messages += int64(word(p, 0))
			out.Bytes += int64(word(p, 1))
			payloads[rank] = p[16:]
		}
		return assemble(out, pl.shares, payloads)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendInts / decodeInts carry a rank's per-vertex integers through the
// Gather, little-endian at the type's own width.
func appendInts[T int32 | int64](buf []byte, xs []T) []byte {
	size := binary.Size(T(0))
	buf = slices.Grow(buf, size*len(xs))
	for _, x := range xs {
		if size == 4 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		} else {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	}
	return buf
}

// word reads the i-th 8-byte header word of a gathered payload.
func word(p []byte, i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }

func decodeInts[T int32 | int64](b []byte) []T {
	size := binary.Size(T(0))
	out := make([]T, len(b)/size)
	for i := range out {
		if size == 4 {
			out[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		} else {
			out[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return out
}

// VerifyMatching checks validity and maximality of a matching on g.
func VerifyMatching(g *Graph, m Mates) error { return m.VerifyMaximal(g) }

// VerifyColoring checks that c is a proper complete coloring of g.
func VerifyColoring(g *Graph, c Colors) error { return c.Verify(g) }

// Version identifies the library.
const Version = "1.0.0"

// String renders a short banner.
func String() string {
	return fmt.Sprintf("dmgm %s — distributed-memory matching & coloring (IPDPS-W 2011 reproduction)", Version)
}
