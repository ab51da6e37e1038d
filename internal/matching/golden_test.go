package matching

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/partition"
)

var update = flag.Bool("update", false, "rewrite testdata/kernels.golden from what the kernels compute now")

// The kernel golden table pins what the distributed matching kernel computes
// on a grid of small inputs, restricted to what is a function of (graph,
// partition, options) alone: for the asynchronous REQUEST/SUCCEEDED/FAILED
// kernel that is the matching itself — records and outer iterations depend on
// arrival order (the paper's Fig. 3.1 remark) and are asserted as bounds
// instead. The file was recorded before the kernel was moved onto core.go and
// must not change when either is touched: card / weight / hash are what the
// kernel computes and never move.

type goldenGraph struct {
	name string
	g    *graph.Graph
}

func goldenGraphs(t *testing.T) []goldenGraph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// 70 connected weighted vertices followed by 30 isolated ones: ranks that
	// own only degree-0 vertices, and empty neighbor-rank sets.
	er := must(gen.ErdosRenyi(70, 260, true, 21))
	return []goldenGraph{
		{"grid", must(gen.Grid2D(12, 11, true, 5))},
		{"er", must(gen.ErdosRenyi(120, 520, true, 9))},
		{"rmat", must(gen.RMAT(7, 5, true, 13))},
		{"circuit", must(gen.Circuit(11, 11, 0.45, true, 4))},
		// Every weight ties: the order's label tie-break is all there is.
		{"er-unweighted", must(gen.ErdosRenyi(120, 520, false, 9))},
		{"isolated", must(graph.BuildUndirected(100, er.Edges(), graph.DedupeFirst))},
	}
}

// goldenCell is one (graph, partition, P) cell with its sequential references.
type goldenCell struct {
	name   string
	g      *graph.Graph
	shares []*dgraph.DistGraph
	cut    int64
	seq    Mates // LocallyDominant == Greedy, checked once per graph
}

// goldenKernel is one line of the table. run executes the kernel once on w,
// checks the schedule-independent invariants of that run against the
// sequential references, and returns the rendered line.
type goldenKernel struct {
	name string
	run  func(t *testing.T, cell *goldenCell, w *mpi.World, on *wire) (line string)
}

// wire is an in-process transport that counts the records put on it per tag
// — one ends at every byte without a varint continuation bit, whatever a
// receiver goes on to make of the bundle.
type wire struct {
	*transport.Inproc
	mu      sync.Mutex
	records map[int]int64
}

func newWire(p int) *wire {
	return &wire{Inproc: transport.NewInproc(p), records: map[int]int64{}}
}

func (w *wire) Send(m transport.Msg) error {
	w.mu.Lock()
	for _, b := range m.Payload {
		if b < 0x80 {
			w.records[m.Tag]++
		}
	}
	w.mu.Unlock()
	return w.Inproc.Send(m)
}

// hashMates hashes a matching as per-vertex partner lists (a count, then the
// partners) — the form the recorded hash= cells were computed over.
func hashMates(m Mates) uint64 {
	h := fnv.New64a()
	for _, u := range m {
		if u == graph.None {
			binary.Write(h, binary.LittleEndian, int32(0))
			continue
		}
		binary.Write(h, binary.LittleEndian, int32(1))
		binary.Write(h, binary.LittleEndian, u)
	}
	return h.Sum64()
}

// runRanks runs fn on every rank of w and collects the per-rank results.
func runRanks[R any](t *testing.T, w *mpi.World, what string, fn func(c *mpi.Comm) (R, error)) []R {
	t.Helper()
	results := make([]R, w.Size())
	var mu sync.Mutex
	err := w.Run(func(c *mpi.Comm) error {
		res, err := fn(c)
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return results
}

func asyncKernel(name string, opt ParallelOptions) goldenKernel {
	return goldenKernel{name: name, run: func(t *testing.T, cell *goldenCell, w *mpi.World, on *wire) string {
		what := cell.name + " " + name
		before := on.records[matchTag]
		results := runRanks(t, w, what, func(c *mpi.Comm) (*ParallelResult, error) {
			return Parallel(c, cell.shares[c.Rank()], opt)
		})
		mates, err := Gather(cell.shares, results)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !slices.Equal(mates, cell.seq) {
			t.Errorf("%s: differs from the sequential locally-dominant matching", what)
		}
		var records, outer int64
		var weight float64
		for _, r := range results {
			records += r.Records
			outer += r.OuterIterations
			weight += r.LocalWeight
		}
		// At least two and at most three records cross any cross edge.
		if records > 3*cell.cut {
			t.Errorf("%s: %d records for %d cross edges, bound is 3 per edge", what, records, cell.cut)
		}
		if len(cell.shares) == 1 && (records != 0 || outer != 0) {
			t.Errorf("%s: single rank sent %d records in %d outer iterations", what, records, outer)
		}
		// What the ranks count as records is what a walk of the bundles on
		// the wire finds, each of them a varint within the record bound, and
		// with bundling off each in a message of its own. The finalize fence
		// adds one empty message per neighbour rank of every rank.
		sent := w.TotalStats().ByFamily[mpi.FamilyMatch]
		var fence int64
		for _, d := range cell.shares {
			fence += int64(len(d.NeighborRanks))
		}
		if walked := on.records[matchTag] - before; walked != records {
			t.Errorf("%s: ranks count %d records sent, the bundles on the wire hold %d", what, records, walked)
		}
		if sent.SentBytes < records || sent.SentBytes > records*RecordBytes {
			t.Errorf("%s: %d match-family bytes for %d records of 1 to %d bytes", what, sent.SentBytes, records, RecordBytes)
		}
		if opt.MaxBundleBytes == RecordBytes && sent.SentMsgs != records+fence {
			t.Errorf("%s: %d messages for %d records and %d fence messages with bundling off", what, sent.SentMsgs, records, fence)
		}
		if want := mates.Weight(cell.g); math.Abs(weight-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("%s: ranks' LocalWeight sums to %v, matching weighs %v", what, weight, want)
		}
		return fmt.Sprintf("%s card=%d weight=%v hash=%016x", name, mates.Cardinality(), mates.Weight(cell.g), hashMates(mates))
	}}
}

// goldenKernels lists the configurations recorded per cell: the asynchronous
// kernel with the paper's bundling on and off.
func goldenKernels() []goldenKernel {
	return []goldenKernel{
		asyncKernel("async/bundled", ParallelOptions{}),
		asyncKernel("async/unbundled", ParallelOptions{MaxBundleBytes: RecordBytes}),
	}
}

// goldenLine runs one kernel on a fresh world, then resets the world and
// runs it again: the kernel may leave no message behind (the finalize
// fence), and the rerun must reproduce the line — the property the daemon's
// world pool relies on.
func goldenLine(t *testing.T, cell *goldenCell, k goldenKernel, mpiOpts ...mpi.Option) string {
	t.Helper()
	on := newWire(len(cell.shares))
	w, err := mpi.NewWorld(len(cell.shares), append(mpiOpts, mpi.WithTransport(on), mpi.WithDeadline(60*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	line := k.run(t, cell, w, on)
	stale, err := w.Reset()
	if err != nil {
		t.Fatalf("%s %s: %v", cell.name, k.name, err)
	}
	if stale != 0 {
		t.Errorf("%s %s: %d stale messages left in the world", cell.name, k.name, stale)
	}
	if again := k.run(t, cell, w, on); again != line {
		t.Errorf("%s: rerun on the reset world differs:\n  first  %s\n  second %s", cell.name, line, again)
	}
	return line
}

func TestKernelGolden(t *testing.T) {
	var got bytes.Buffer
	kernels := goldenKernels()
	for _, gg := range goldenGraphs(t) {
		seq := LocallyDominant(gg.g)
		if !slices.Equal(seq, Greedy(gg.g)) {
			t.Fatalf("%s: LocallyDominant differs from Greedy", gg.name)
		}
		for _, p := range []int{1, 2, 4, 7} {
			for _, pname := range []string{"block", "random", "bfs", "multilevel"} {
				if p == 1 && pname != "block" {
					continue // every 1-way partition is the same partition
				}
				mk, err := partition.ByName(pname)
				if err != nil {
					t.Fatal(err)
				}
				// Unrefined: refined multilevel is not reproducible for P > 2
				// (see internal/coloring/golden_test.go).
				part, err := mk(gg.g, p, partition.MultilevelOptions{Seed: 3, NoRefine: true, CoarsenTo: 40})
				if err != nil {
					t.Fatal(err)
				}
				shares, err := dgraph.Distribute(gg.g, part)
				if err != nil {
					t.Fatal(err)
				}
				cell := &goldenCell{
					name:   fmt.Sprintf("%s/%s/p%d", gg.name, pname, p),
					g:      gg.g,
					shares: shares,
					cut:    partition.Measure(gg.g, part).EdgeCut,
					seq:    seq,
				}
				for _, k := range kernels {
					line := goldenLine(t, cell, k)
					for seed := uint64(1); seed <= 3; seed++ {
						if again := goldenLine(t, cell, k, mpi.WithPerturbation(seed)); again != line {
							t.Errorf("%s: not deterministic under perturbation %d:\n  plain     %s\n  perturbed %s", cell.name, seed, line, again)
						}
					}
					fmt.Fprintf(&got, "%s %s\n", cell.name, line)
				}
			}
		}
	}
	const path = "testdata/kernels.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	shown := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] && shown < 20 {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gotLines[i], wantLines[i])
			shown++
		}
	}
}
