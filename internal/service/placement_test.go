package service_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dmgm"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/service/client"
)

// freshly computes what req must answer on g the way a CLI run would: a new
// partition, shares placed for this one call, a new world.
func freshly(t *testing.T, g *graph.Graph, req service.Request) (*dmgm.Placement, *dmgm.JobResult) {
	t.Helper()
	build, err := partition.ByName(req.Partition)
	if err != nil {
		t.Fatal(err)
	}
	part, err := build(g, req.Ranks, partition.MultilevelOptions{Seed: req.Seed})
	if err != nil {
		t.Fatal(err)
	}
	placement, err := dmgm.Place(g, part)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(req.Ranks, mpi.WithDeadline(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmgm.RunJob(w, g, placement, dmgm.Job{Algorithm: req.Algorithm, Params: req.Params})
	if err != nil {
		t.Fatal(err)
	}
	return placement, res
}

// placementMetrics reads the three numbers the placement tests reason about.
func placementMetrics(t *testing.T, cl *client.Client) (builds, bytes, partHits int64) {
	t.Helper()
	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m.Counters["service.placement_builds"], m.Gauges["service.placement_bytes"], m.Counters["service.partition_cache_hits"]
}

// TestPlacementSeedlessKey: the request seed is also the coloring tie-break
// seed, and the block partitioner ignores it — so a coloring seed sweep by
// reference on a block partition is one partition-cache entry and one
// retained share set, not one of each per seed.
func TestPlacementSeedlessKey(t *testing.T) {
	g, _ := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 1}, true)
	ctx := context.Background()
	ref, _, err := cl.UploadGraph(ctx, g, client.UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var results []string
	for _, seed := range []uint64{3, 4} {
		req := service.Request{Algorithm: service.AlgoColor, GraphRef: ref, Ranks: 2, Partition: "block", Params: dmgm.Params{Comm: "neighbors", Superstep: 1000, Seed: seed}}
		resp, err := cl.Submit(ctx, &req)
		if err != nil {
			t.Fatal(err)
		}
		if _, want := freshly(t, g, req); resp.Result != want.Text {
			t.Fatalf("seed %d: the answer diverges from a fresh run", seed)
		}
		results = append(results, resp.Result)
	}
	if results[0] == results[1] {
		t.Fatal("both seeds colored alike: the sweep does not exercise the tie-break seed")
	}
	builds, _, hits := placementMetrics(t, cl)
	if hits != 1 {
		t.Fatalf("partition_cache_hits = %d after a second seed on a block partition, want 1", hits)
	}
	if builds != 1 {
		t.Fatalf("placement_builds = %d over a seed sweep on one block partition, want 1", builds)
	}
	// A partitioner that reads the seed keeps it in its key.
	for _, seed := range []uint64{3, 4} {
		req := service.Request{Algorithm: service.AlgoColor, GraphRef: ref, Ranks: 2, Partition: "random", Params: dmgm.Params{Seed: seed}}
		if _, err := cl.Submit(ctx, &req); err != nil {
			t.Fatal(err)
		}
	}
	if builds, _, hits := placementMetrics(t, cl); hits != 1 || builds != 3 {
		t.Fatalf("after two seeds on a random partition: partition_cache_hits = %d, placement_builds = %d, want 1 and 3", hits, builds)
	}
}

// TestPlacementSharedByConcurrentJobs: sixteen match and color jobs by
// reference, two at a time, cut the graph's shares once and all run on that
// one set — each answering exactly what a run on freshly placed shares
// answers. The same graph inline afterwards runs on the retained shares and
// retains nothing of its own.
func TestPlacementSharedByConcurrentJobs(t *testing.T) {
	g, gtext := testGraph(t)
	_, cl := startServer(t, service.Config{Workers: 2}, true)
	ctx := context.Background()
	ref, _, err := cl.UploadGraph(ctx, g, client.UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := service.Request{GraphRef: ref, Ranks: 4, Partition: "multilevel", Params: dmgm.Params{Comm: "neighbors", Superstep: 1000, Seed: 5}, NoCache: true}
	want := map[string]*dmgm.JobResult{}
	var placed *dmgm.Placement
	for _, algo := range []string{service.AlgoMatch, service.AlgoColor} {
		req := base
		req.Algorithm = algo
		placed, want[algo] = freshly(t, g, req)
	}

	const jobs = 16
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		req := base
		req.Algorithm = []string{service.AlgoMatch, service.AlgoColor}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cl.Submit(ctx, &req)
			if err != nil {
				t.Error(err)
				return
			}
			if w := want[req.Algorithm]; resp.Result != w.Text || resp.Weight != w.Weight || resp.Colors != w.Colors {
				t.Errorf("%s job on the shared placement diverges from a freshly placed run", req.Algorithm)
			}
		}()
	}
	wg.Wait()
	builds, bytes, _ := placementMetrics(t, cl)
	if builds != 1 {
		t.Fatalf("placement_builds = %d over %d concurrent jobs on one (graph, partition), want 1", builds, jobs)
	}
	if bytes != placed.Bytes() {
		t.Fatalf("placement_bytes = %d, want the %d bytes of one share set", bytes, placed.Bytes())
	}

	// Inline, on the key the by-reference jobs left shares on; then inline on
	// a key of its own.
	for _, ranks := range []int{base.Ranks, 3} {
		req := base
		req.Algorithm, req.GraphRef, req.Graph, req.Ranks = service.AlgoMatch, "", gtext, ranks
		resp, err := cl.Submit(ctx, &req)
		if err != nil {
			t.Fatal(err)
		}
		if _, w := freshly(t, g, req); resp.Result != w.Text {
			t.Fatalf("inline job at %d ranks diverges from a freshly placed run", ranks)
		}
	}
	if b, by, _ := placementMetrics(t, cl); b != builds || by != bytes {
		t.Fatalf("inline jobs moved the placements: builds %d → %d, bytes %d → %d", builds, b, bytes, by)
	}
}

// TestPlacementBudget: retained shares are charged by bytes against the
// -store-mb number. Three uploaded graphs whose share sets do not fit
// together: the least recently used set is dropped, the gauge never passes
// the budget, a job on a dropped key rebuilds and answers as before — and an
// evicted partition entry takes its shares with it.
func TestPlacementBudget(t *testing.T) {
	const budget = 1 << 20
	ctx := context.Background()
	type input struct {
		g    *graph.Graph
		req  service.Request
		size int64
		want string
	}
	load := func(cl *client.Client, n int) []*input {
		t.Helper()
		var ins []*input
		for seed := uint64(1); seed <= uint64(n); seed++ {
			// 74² vertices: two share sets of ≈ 93 B per vertex fit the
			// budget, three do not.
			g, err := gen.Grid2D(74, 74, true, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := cl.UploadGraph(ctx, g, client.UploadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			in := &input{g: g, req: service.Request{Algorithm: service.AlgoMatch, GraphRef: ref, Ranks: 2, Partition: "block", Params: dmgm.Params{Seed: 1}, NoCache: true}}
			placement, res := freshly(t, g, in.req)
			in.size, in.want = placement.Bytes(), res.Text
			ins = append(ins, in)
		}
		return ins
	}
	// run submits in's job, checks the answer, and returns the counters.
	run := func(cl *client.Client, in *input) (builds, bytes int64) {
		t.Helper()
		resp, err := cl.Submit(ctx, &in.req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result != in.want {
			t.Fatal("the answer diverges from a freshly placed run")
		}
		builds, bytes, _ = placementMetrics(t, cl)
		if bytes > budget {
			t.Fatalf("placement_bytes = %d, over the %d-byte budget", bytes, budget)
		}
		return builds, bytes
	}

	t.Run("least recently used shares are dropped", func(t *testing.T) {
		_, cl := startServer(t, service.Config{Workers: 1, StoreBytes: budget}, true)
		ins := load(cl, 3)
		a, b, c := ins[0], ins[1], ins[2]
		if a.size+b.size > budget || a.size+b.size+c.size <= budget {
			t.Fatalf("share sets of %d, %d and %d bytes: want two to fit %d bytes and three not to", a.size, b.size, c.size, budget)
		}
		for step, tc := range []struct {
			in         *input
			wantBuilds int64
			wantBytes  int64
		}{
			{a, 1, a.size},
			{b, 2, a.size + b.size},
			{c, 3, b.size + c.size}, // a's shares are the least recently used
			{b, 3, b.size + c.size}, // still retained; now c's are the oldest
			{a, 4, b.size + a.size}, // rebuilt, c's dropped
			{a, 4, b.size + a.size},
		} {
			if builds, bytes := run(cl, tc.in); builds != tc.wantBuilds || bytes != tc.wantBytes {
				t.Fatalf("step %d: placement_builds = %d, placement_bytes = %d; want %d and %d", step, builds, bytes, tc.wantBuilds, tc.wantBytes)
			}
		}
	})

	t.Run("an evicted partition entry drops its shares", func(t *testing.T) {
		_, cl := startServer(t, service.Config{Workers: 1, PartitionCacheEntries: 1}, true)
		ins := load(cl, 2)
		if _, bytes := run(cl, ins[0]); bytes != ins[0].size {
			t.Fatalf("placement_bytes = %d after the first job, want %d", bytes, ins[0].size)
		}
		// The second graph inline: its partition takes the cache's one slot
		// and, being inline, retains nothing.
		var sb strings.Builder
		if err := graph.WriteText(&sb, ins[1].g); err != nil {
			t.Fatal(err)
		}
		ins[1].req.GraphRef, ins[1].req.Graph = "", sb.String()
		if _, bytes := run(cl, ins[1]); bytes != 0 {
			t.Fatalf("placement_bytes = %d after the entry holding the shares was evicted, want 0", bytes)
		}
		if builds, bytes := run(cl, ins[0]); builds != 2 || bytes != ins[0].size {
			t.Fatalf("back on the first graph: placement_builds = %d, placement_bytes = %d; want 2 and %d", builds, bytes, ins[0].size)
		}
	})

	t.Run("a disabled partition cache retains nothing", func(t *testing.T) {
		_, cl := startServer(t, service.Config{Workers: 1, PartitionCacheEntries: -1}, true)
		in := load(cl, 1)[0]
		run(cl, in)
		if _, bytes := run(cl, in); bytes != 0 {
			t.Fatalf("placement_bytes = %d with the partition cache off, want 0", bytes)
		}
	})
}
