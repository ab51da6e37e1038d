// Package dmgm (distributed-memory graph matching and coloring) is the
// public API of this repository — a Go reproduction of Çatalyürek, Dobrian,
// Gebremedhin, Halappanavar and Pothen, "Distributed-Memory Parallel
// Algorithms for Matching and Coloring" (IPDPS Workshops, 2011).
//
// The package re-exports the graph substrate and offers one-call entry
// points for the four algorithm families:
//
//   - Match / MatchParallel — the ½-approximate edge-weighted matching by
//     locally dominant edges, sequential and distributed (REQUEST /
//     SUCCEEDED / FAILED message protocol with aggressive bundling).
//   - MatchExactBipartite — the exact maximum-weight bipartite reference.
//   - Color / ColorParallel — greedy distance-1 coloring, sequential over
//     the ColPack orderings, and the distributed speculative/iterative
//     framework with FIAB / FIAC / neighbor-customized communication.
//
// The distributed entry points run every rank as a goroutine over the
// in-process message-passing runtime (internal/mpi), this repository's
// substitute for MPI; see DESIGN.md for the substitution inventory. They
// are kernel closures around one driver (distributed) that is handed a
// Placement — a partition and the shares Place cuts by it — and RunJob is
// the one function that takes a named job through run, verification and text
// serialization — what the CLIs and the daemon call (DESIGN.md §9). Lower
// level control (building per-rank shares, running inside your own world,
// collecting traffic statistics) is available through the internal packages
// for in-module code, and mirrors what the examples under examples/ do.
package dmgm

import (
	"encoding/binary"
	"fmt"
	"time"

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
	// ReadGraphFile reads either graph format, sniffed by content;
	// WriteGraphFile writes DMGB for a ".dmgb" or ".bin" name, text
	// otherwise.
	ReadGraphFile  = graph.ReadFile
	WriteGraphFile = graph.WriteFile

	// Grid2D generates the paper's five-point grid model problem.
	Grid2D = gen.Grid2D
	// Circuit generates a circuit-simulation-like graph (G3_circuit
	// stand-in).
	Circuit = gen.Circuit
	// CircuitBipartite is its bipartite (matrix) form.
	CircuitBipartite = gen.CircuitBipartite
	// ErdosRenyi, RMAT, Geometric, RandomBipartite generate irregular
	// families.
	ErdosRenyi      = gen.ErdosRenyi
	RMAT            = gen.RMAT
	Geometric       = gen.Geometric
	RandomBipartite = gen.RandomBipartite

	// PartitionBlock1D, PartitionGrid2D, PartitionBFS, PartitionRandom and
	// PartitionMultilevel distribute vertices over processors.
	PartitionBlock1D = partition.Block1D
	PartitionGrid2D  = partition.Grid2D
	PartitionBFS     = partition.BFS
	PartitionRandom  = partition.Random
)

// PartitionMultilevel computes a METIS-like multilevel k-way partition.
// refine=false selects the unrefined (ParMETIS-quality) variant.
func PartitionMultilevel(g *Graph, p int, refine bool, seed uint64) (*Partition, error) {
	return partition.Multilevel(g, p, partition.MultilevelOptions{Seed: seed, NoRefine: !refine})
}

// Vertex ordering names for Color.
const (
	OrderNatural         = order.Natural
	OrderRandom          = order.Random
	OrderLargestFirst    = order.LargestFirst
	OrderSmallestLast    = order.SmallestLast
	OrderIncidenceDegree = order.IncidenceDegree
)

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

// MatchParallelOptions configures MatchParallel.
type MatchParallelOptions struct {
	// BundleBytes caps the message-aggregation buffers (0 = 64 KiB). A
	// buffer ships once another record of matching.RecordBytes — the upper
	// bound on a record — might not fit, so matching.RecordBytes itself
	// disables the paper's bundling: one record per message.
	BundleBytes int
	// Deadline aborts a wedged run (0 = 10 minutes).
	Deadline time.Duration
}

// MatchParallelResult reports a distributed matching run.
type MatchParallelResult struct {
	Mates  Mates
	Weight float64
	// OuterIterations is the maximum outer-loop count over ranks.
	OuterIterations int64
	// Messages and Bytes total the runtime traffic.
	Messages, Bytes int64
}

// MatchParallel distributes g by part, runs the asynchronous distributed
// matching with one goroutine rank per part, and gathers the global result.
// The matching is identical to Match(g) for any partition.
func MatchParallel(g *Graph, part *Partition, opt MatchParallelOptions) (*MatchParallelResult, error) {
	w, err := newWorld(part, opt.Deadline)
	if err != nil {
		return nil, err
	}
	return MatchParallelWorld(w, g, part, opt)
}

// MatchParallelWorld runs the distributed matching over an existing world,
// which may span multiple processes through a remote transport (see
// mpi.WithTransport). Every process must call it with the same graph and
// partition; the global result is assembled through collectives, so it is
// returned on the process hosting rank 0 and is nil (with a nil error) on
// every other process.
func MatchParallelWorld(w *mpi.World, g *Graph, part *Partition, opt MatchParallelOptions) (*MatchParallelResult, error) {
	pl, err := placeFor(w, g, part)
	if err != nil {
		return nil, err
	}
	return matchPlaced(w, pl, opt)
}

// matchPlaced is MatchParallelWorld on shares already cut.
func matchPlaced(w *mpi.World, pl *Placement, opt MatchParallelOptions) (*MatchParallelResult, error) {
	return distributed(w, pl,
		func(c *mpi.Comm, d *dgraph.DistGraph) (*MatchParallelResult, []byte, error) {
			res, err := matching.Parallel(c, d, matching.ParallelOptions{MaxBundleBytes: opt.BundleBytes})
			if err != nil {
				return nil, nil, err
			}
			return &MatchParallelResult{
				Weight:          c.AllreduceFloat64(res.LocalWeight, mpi.OpSum),
				OuterIterations: c.AllreduceInt64(res.OuterIterations, mpi.OpMax),
			}, encodeInts(res.MateGlobal), nil
		},
		func(out *MatchParallelResult, t traffic, shares []*dgraph.DistGraph, payloads [][]byte) (*MatchParallelResult, error) {
			results := make([]*matching.ParallelResult, len(payloads))
			for rank, p := range payloads {
				results[rank] = &matching.ParallelResult{MateGlobal: decodeInts[int64](p)}
			}
			var err error
			out.Mates, err = matching.Gather(shares, results)
			out.Messages, out.Bytes = t.messages, t.bytes
			return out, err
		})
}

// Coloring communication modes (Section 4.2).
const (
	CommNeighbors     = coloring.CommNeighbors
	CommCustomizedAll = coloring.CommCustomizedAll
	CommBroadcast     = coloring.CommBroadcast
)

// ColorParallelOptions configures ColorParallel; the zero value selects the
// paper's preferred configuration (superstep 1000, neighbor-customized
// communication, first fit, randomized conflict resolution).
type ColorParallelOptions struct {
	SuperstepSize int
	CommMode      coloring.CommMode
	Strategy      coloring.Strategy
	Order         coloring.VertexOrder
	Conflict      coloring.ConflictPolicy
	Seed          uint64
	Deadline      time.Duration
}

// ColorParallelResult reports a distributed coloring run.
type ColorParallelResult struct {
	Colors    Colors
	NumColors int
	Rounds    int
	Conflicts int64
	// Messages and Bytes total the runtime traffic.
	Messages, Bytes int64
}

// ColorParallel distributes g by part and runs the speculative iterative
// distance-1 coloring with one goroutine rank per part.
func ColorParallel(g *Graph, part *Partition, opt ColorParallelOptions) (*ColorParallelResult, error) {
	w, err := newWorld(part, opt.Deadline)
	if err != nil {
		return nil, err
	}
	return ColorParallelWorld(w, g, part, opt)
}

// ColorParallelWorld runs the speculative distance-1 coloring over an
// existing world, which may span multiple processes through a remote
// transport. Every process must call it with the same graph and partition;
// the global result is returned on the process hosting rank 0 and is nil
// (with a nil error) elsewhere.
func ColorParallelWorld(w *mpi.World, g *Graph, part *Partition, opt ColorParallelOptions) (*ColorParallelResult, error) {
	pl, err := placeFor(w, g, part)
	if err != nil {
		return nil, err
	}
	return colorDistributed(w, pl, distance1(opt))
}

// colorKernel is what one rank of a coloring run executes on its share.
type colorKernel func(*mpi.Comm, *dgraph.DistGraph) (*coloring.ParallelResult, error)

// distance1 is the speculative distance-1 kernel under opt.
func distance1(opt ColorParallelOptions) colorKernel {
	return func(c *mpi.Comm, d *dgraph.DistGraph) (*coloring.ParallelResult, error) {
		return coloring.Parallel(c, d, coloring.ParallelOptions{
			SuperstepSize: opt.SuperstepSize,
			CommMode:      opt.CommMode,
			Strategy:      opt.Strategy,
			Order:         opt.Order,
			Conflict:      opt.Conflict,
			Seed:          opt.Seed,
		})
	}
}

// colorDistributed is the driver of every coloring kernel — speculative
// distance-1 and distance-2, and the Jones–Plassmann baseline of RunJob —
// which all hand back a coloring.ParallelResult per rank.
func colorDistributed(w *mpi.World, pl *Placement, kernel colorKernel) (*ColorParallelResult, error) {
	return distributed(w, pl,
		func(c *mpi.Comm, d *dgraph.DistGraph) (*ColorParallelResult, []byte, error) {
			res, err := kernel(c, d)
			if err != nil {
				return nil, nil, err
			}
			return &ColorParallelResult{
				NumColors: res.NumColors, // identical on every rank
				Rounds:    res.Rounds,
				Conflicts: c.AllreduceInt64(res.Conflicts, mpi.OpSum),
			}, encodeInts(res.Colors), nil
		},
		func(out *ColorParallelResult, t traffic, shares []*dgraph.DistGraph, payloads [][]byte) (*ColorParallelResult, error) {
			results := make([]*coloring.ParallelResult, len(payloads))
			for rank, p := range payloads {
				results[rank] = &coloring.ParallelResult{Colors: decodeInts[int32](p)}
			}
			var err error
			out.Colors, err = coloring.Gather(shares, results)
			out.Messages, out.Bytes = t.messages, t.bytes
			return out, err
		})
}

// traffic totals a run's point-to-point messages over all ranks.
type traffic struct{ messages, bytes int64 }

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

// placeFor is the "place, then run" of the (g, part) entry points: the world
// is checked against the partition before the shares are paid for.
func placeFor(w *mpi.World, g *Graph, part *Partition) (*Placement, error) {
	if err := fits(w, part); err != nil {
		return nil, err
	}
	return Place(g, part)
}

// distributed is the one driver every distributed entry point of this
// package is a kernel closure around: check the placement against the world,
// run kernel on every rank's share, reduce the traffic totals, allgather the
// ranks' per-vertex payloads, and assemble the global result on rank 0.
// Everything after the kernel goes through collectives, so the path is the
// same for in-process and wire-transport worlds; on a process that does not
// host rank 0 the result is the zero R (nil) with a nil error.
//
// kernel runs one rank's share: it returns the rank's per-owned-vertex
// payload, encoded for the wire, and a partial result holding the scalars
// it has already allreduced (which scalars, and under which operator, is the
// algorithm's business). assemble runs on rank 0 only and completes rank 0's
// partial result from every rank's payload.
func distributed[R any](w *mpi.World, pl *Placement,
	kernel func(*mpi.Comm, *dgraph.DistGraph) (R, []byte, error),
	assemble func(partial R, t traffic, shares []*dgraph.DistGraph, payloads [][]byte) (R, error)) (R, error) {
	var out R
	if err := fits(w, pl.part); err != nil {
		return out, err
	}
	shares := pl.shares
	err := w.Run(func(c *mpi.Comm) error {
		partial, payload, err := kernel(c, shares[c.Rank()])
		if err != nil {
			return err
		}
		snap := c.StatsSnapshot() // collectives are uncounted, so this is final
		t := traffic{
			messages: c.AllreduceInt64(snap.SentMsgs, mpi.OpSum),
			bytes:    c.AllreduceInt64(snap.SentBytes, mpi.OpSum),
		}
		payloads := c.Allgather(payload)
		if c.Rank() != 0 {
			return nil
		}
		out, err = assemble(partial, t, shares, payloads)
		return err
	})
	return out, err
}

// newWorld builds the in-process world of the one-call entry points: one
// goroutine rank per part, aborted after deadline (0 = 10 minutes).
func newWorld(part *Partition, deadline time.Duration) (*mpi.World, error) {
	if deadline == 0 {
		deadline = 10 * time.Minute
	}
	return mpi.NewWorld(part.P, mpi.WithDeadline(deadline))
}

// encodeInts / decodeInts carry a rank's per-vertex integers through
// Allgather, little-endian at the type's own width.
func encodeInts[T int32 | int64](xs []T) []byte {
	size := binary.Size(T(0))
	out := make([]byte, size*len(xs))
	for i, x := range xs {
		if size == 4 {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
		} else {
			binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
		}
	}
	return out
}

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
