package coloring

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
)

var update = flag.Bool("update", false, "rewrite testdata/kernels.golden from what the kernels compute now")

// The kernel golden table pins what every distributed coloring kernel
// computes — colors, color count, rounds, conflicts and color-family traffic
// — on a grid of small inputs, in the regime where all of it is a function of
// (graph, partition, options) alone: with SuperstepSize ≥ n a round is one
// superstep, so no pick ever depends on which notices happened to arrive
// mid-phase. The file was recorded before the kernels were moved onto the
// shared core and must not change when they are touched — with one
// distinction between its columns: colors / rounds / conflicts / msgs / hash
// are what the kernels compute and whom they tell, and never move; bytes= is
// what the notice encoding makes of that, so a change of encoding re-records
// that cell and nothing else.

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
	// 70 connected vertices followed by 30 isolated ones: ranks that own only
	// degree-0 vertices, and empty neighbor-rank sets.
	er := must(gen.ErdosRenyi(70, 260, false, 21))
	var edges []graph.Edge
	for v := 0; v < er.NumVertices(); v++ {
		for _, u := range er.Neighbors(graph.Vertex(v)) {
			if int(u) > v {
				edges = append(edges, graph.Edge{U: graph.Vertex(v), V: u, W: 1})
			}
		}
	}
	return []goldenGraph{
		{"grid", must(gen.Grid2D(12, 11, false, 0))},
		{"er", must(gen.ErdosRenyi(120, 520, false, 9))},
		{"rmat", must(gen.RMAT(7, 5, false, 13))},
		{"circuit", must(gen.Circuit(11, 11, 0.45, false, 4))},
		{"isolated", must(graph.BuildUndirected(100, edges, graph.DedupeFirst))},
	}
}

// goldenKernel is one line of the table: a named kernel configuration.
type goldenKernel struct {
	name string
	run  func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error)
}

// goldenKernels lists the configurations recorded per (graph, partition, P)
// cell: D1 with every comm mode, order, strategy and conflict policy varied
// alone from the default plus two all-non-default mixes, D2 under both
// conflict policies, and Jones–Plassmann.
func goldenKernels(n int) []goldenKernel {
	type d1 struct {
		m CommMode
		o VertexOrder
		s Strategy
		c ConflictPolicy
	}
	var ks []goldenKernel
	for _, k := range []d1{
		{CommNeighbors, BoundaryFirst, FirstFit, ConflictRandom},
		{CommCustomizedAll, BoundaryFirst, FirstFit, ConflictRandom},
		{CommBroadcast, BoundaryFirst, FirstFit, ConflictRandom},
		{CommNeighbors, InteriorFirst, FirstFit, ConflictRandom},
		{CommNeighbors, Interleaved, FirstFit, ConflictRandom},
		{CommNeighbors, BoundaryFirst, StaggeredFirstFit, ConflictRandom},
		{CommNeighbors, BoundaryFirst, LeastUsed, ConflictRandom},
		{CommNeighbors, BoundaryFirst, FirstFit, ConflictMinID},
		{CommCustomizedAll, InteriorFirst, StaggeredFirstFit, ConflictMinID},
		{CommBroadcast, Interleaved, LeastUsed, ConflictMinID},
	} {
		opt := ParallelOptions{Seed: 7, SuperstepSize: n + 1, CommMode: k.m, Order: k.o, Strategy: k.s, Conflict: k.c}
		ks = append(ks, goldenKernel{
			name: fmt.Sprintf("d1/%v/%v/%v/%v", k.m, k.o, k.s, k.c),
			run: func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
				return Parallel(c, d, opt)
			},
		})
	}
	for _, cp := range []ConflictPolicy{ConflictRandom, ConflictMinID} {
		opt := ParallelOptions{Seed: 7, SuperstepSize: n + 1, Conflict: cp}
		ks = append(ks, goldenKernel{
			name: fmt.Sprintf("d2/%v", cp),
			run: func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
				return ParallelDistance2(c, d, opt)
			},
		})
	}
	return append(ks, goldenKernel{
		name: "jp",
		run: func(c *mpi.Comm, d *dgraph.DistGraph) (*ParallelResult, error) {
			return JonesPlassmann(c, d, 7, 0)
		},
	})
}

// goldenLine runs one kernel on one world and renders its row.
func goldenLine(t *testing.T, shares []*dgraph.DistGraph, k goldenKernel, mpiOpts ...mpi.Option) string {
	t.Helper()
	w, err := mpi.NewWorld(len(shares), append(mpiOpts, mpi.WithDeadline(60*time.Second))...)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*ParallelResult, len(shares))
	var mu sync.Mutex
	err = w.Run(func(c *mpi.Comm) error {
		res, err := k.run(c, shares[c.Rank()])
		if err != nil {
			return err
		}
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", k.name, err)
	}
	colors, err := Gather(shares, results)
	if err != nil {
		t.Fatalf("%s: %v", k.name, err)
	}
	h := fnv.New64a()
	var conflicts int64
	for _, r := range results {
		conflicts += r.Conflicts
		if r.Rounds != results[0].Rounds || r.NumColors != results[0].NumColors {
			t.Fatalf("%s: ranks disagree on rounds / colors", k.name)
		}
	}
	if err := binary.Write(h, binary.LittleEndian, []int32(colors)); err != nil {
		t.Fatal(err)
	}
	traffic := w.TotalStats().ByFamily[mpi.FamilyColor]
	return fmt.Sprintf("%s colors=%d rounds=%d conflicts=%d msgs=%d bytes=%d hash=%016x",
		k.name, results[0].NumColors, results[0].Rounds, conflicts, traffic.SentMsgs, traffic.SentBytes, h.Sum64())
}

func TestKernelGolden(t *testing.T) {
	var got bytes.Buffer
	for _, gg := range goldenGraphs(t) {
		n := gg.g.NumVertices()
		kernels := goldenKernels(n)
		for _, p := range []int{1, 2, 4, 7} {
			for _, pname := range []string{"block", "random", "bfs", "multilevel"} {
				if p == 1 && pname != "block" {
					continue // every 1-way partition is the same partition
				}
				mk, err := partition.ByName(pname)
				if err != nil {
					t.Fatal(err)
				}
				// Unrefined: multilevel refinement breaks gain ties in map
				// order, so on these unweighted graphs the refined partition
				// itself differs from run to run once P > 2.
				part, err := mk(gg.g, p, partition.MultilevelOptions{Seed: 3, NoRefine: true, CoarsenTo: 40})
				if err != nil {
					t.Fatal(err)
				}
				shares, err := dgraph.Distribute(gg.g, part)
				if err != nil {
					t.Fatal(err)
				}
				cell := fmt.Sprintf("%s/%s/p%d", gg.name, pname, p)
				for _, k := range kernels {
					line := goldenLine(t, shares, k)
					for seed := uint64(1); seed <= 3; seed++ {
						if again := goldenLine(t, shares, k, mpi.WithPerturbation(seed)); again != line {
							t.Errorf("%s: not deterministic under perturbation %d:\n  plain     %s\n  perturbed %s", cell, seed, line, again)
						}
					}
					fmt.Fprintf(&got, "%s %s\n", cell, line)
				}
			}
		}
	}
	const path = "testdata/kernels.golden"
	if *update {
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
