package integration_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/partition"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/counts.golden from what the kernels send now")

// countWire counts, per sending rank, the uvarints each family's messages
// carry. Every record layout is a run of uvarints — one per matching record,
// two per color or RECOLOR notice — so counting the bytes that end one
// counts records whatever the index coding.
type countWire struct {
	*transport.Inproc
	mu      sync.Mutex
	varints [][mpi.NumTagFamilies]int64
}

func (w *countWire) Send(m transport.Msg) error {
	var n int64
	for _, b := range m.Payload {
		if b < 0x80 {
			n++
		}
	}
	w.mu.Lock()
	w.varints[m.From][mpi.FamilyOf(m.Tag)] += n
	w.mu.Unlock()
	return w.Inproc.Send(m)
}

// shares distributes g over p ranks on the multilevel partition of seed 1.
func shares(t *testing.T, g *graph.Graph, p int) []*dgraph.DistGraph {
	t.Helper()
	part, err := partition.Multilevel(g, p, partition.MultilevelOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dgraph.Distribute(g, part)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestMessageCountsGolden pins, rank by rank, how many color messages and
// notices the coloring kernels send at P = 2 and 4: NEW, FIAC and FIAB on
// RMAT-14, and distance-2 (RECOLOR included) on RMAT-8, the largest RMAT
// it converges on within its round limit, all at superstep ≥ n, where the
// traffic is a function of the input. How records are coded changes the
// bytes, never these counts.
func TestMessageCountsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("RMAT-14 runs")
	}
	rmat14, err := gen.RMAT(14, 8, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	rmat8, err := gen.RMAT(8, 8, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name string
		g    *graph.Graph
		mode coloring.CommMode
		d2   bool
	}
	runs := []run{
		{"rmat14 color/neighbors", rmat14, coloring.CommNeighbors, false},
		{"rmat14 color/customized-all", rmat14, coloring.CommCustomizedAll, false},
		{"rmat14 color/broadcast", rmat14, coloring.CommBroadcast, false},
		{"rmat8 color/distance2", rmat8, coloring.CommNeighbors, true},
	}
	var got bytes.Buffer
	for _, p := range []int{2, 4} {
		byGraph := map[*graph.Graph][]*dgraph.DistGraph{}
		for _, r := range runs {
			ds := byGraph[r.g]
			if ds == nil {
				ds = shares(t, r.g, p)
				byGraph[r.g] = ds
			}
			on := &countWire{Inproc: transport.NewInproc(p), varints: make([][mpi.NumTagFamilies]int64, p)}
			w, err := mpi.NewWorld(p, mpi.WithTransport(on), mpi.WithDeadline(2*time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			opt := coloring.ParallelOptions{SuperstepSize: r.g.NumVertices(), CommMode: r.mode, Seed: 1}
			kernel := coloring.Parallel
			if r.d2 {
				kernel = coloring.ParallelDistance2
			}
			if err := w.Run(func(c *mpi.Comm) error {
				_, err := kernel(c, ds[c.Rank()], opt)
				return err
			}); err != nil {
				t.Fatalf("p=%d %s: %v", p, r.name, err)
			}
			for rk := range p {
				fmt.Fprintf(&got, "p=%d %s rank=%d msgs=%d notices=%d\n", p, r.name, rk,
					w.RankStats(rk).ByFamily[mpi.FamilyColor].SentMsgs, on.varints[rk][mpi.FamilyColor]/2)
			}
		}
	}
	path := filepath.Join("testdata", "counts.golden")
	if *updateCounts {
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
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("message counts differ from %s:\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}
