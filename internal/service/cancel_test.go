package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/dmgm"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/service/client"
)

// TestTimedOutJobsStopTheirRanks is the 504 storm: jobs whose deadline fires
// mid-run must not leave their ranks computing answers nobody waits for. The
// job — a broadcast coloring at superstep 1 — takes many supersteps; each
// timed-out run is canceled, so within the bound below — a quarter of one
// untimed run of the same job, where runs left to finish take longer — the
// goroutine count and /healthz inflight are back at their baselines, every
// world is idle in the pool again, and none was discarded. The next job on a
// recycled world then answers byte for byte what a fresh server answers.
func TestTimedOutJobsStopTheirRanks(t *testing.T) {
	g, err := gen.Grid2D(250, 250, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, service.Config{QueueLen: 16, Workers: 1}, true)
	ctx := context.Background()
	ref, _, err := cl.UploadGraph(ctx, g, client.UploadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	heavy := service.Request{Algorithm: service.AlgoColor, GraphRef: ref, Ranks: 4, Partition: "block",
		Params: dmgm.Params{Superstep: 1, Comm: "broadcast"}, NoCache: true}

	// The first untimed run retains the graph's shares (it names the graph
	// by reference), so the second, and the timed runs below, spend their
	// time in the kernel.
	var full time.Duration
	for range 2 {
		start := time.Now()
		if _, err := cl.Submit(ctx, &heavy); err != nil {
			t.Fatal(err)
		}
		full = time.Since(start)
	}
	bound := full / 4
	healthz(t, cl) // its keep-alive connection belongs to the baseline
	baseGoroutines := settledGoroutines()

	const storm = 8
	timed := heavy
	timed.TimeoutMillis = max(1, full.Milliseconds()/10)
	for i := 0; i < storm; i++ {
		_, err := cl.Submit(ctx, &timed)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
			t.Fatalf("timed job %d: %v, want a 504", i, err)
		}
	}
	// Back at baseline: the goroutine count, nothing in flight, and every
	// world the pool ever built idle in it again.
	stormEnd := time.Now()
	for {
		after, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		inflight, idle := healthz(t, cl)
		created := after.Counters["service.pool_worlds_created"]
		if n := after.Counters["service.pool_worlds_discarded"]; n != 0 {
			t.Fatalf("%d canceled worlds discarded, want every one recycled", n)
		}
		if runtime.NumGoroutine() <= baseGoroutines+2 && inflight == 0 && int64(idle) == created {
			break
		}
		if time.Since(stormEnd) > bound {
			t.Fatalf("%v after %d timed-out jobs: %d goroutines (baseline %d), inflight %d, %d of %d worlds idle; one untimed run takes %v",
				time.Since(stormEnd), storm, runtime.NumGoroutine(), baseGoroutines, inflight, idle, created, full)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("back to baseline %v after the storm; one untimed run takes %v", time.Since(stormEnd), full)
	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The next job runs on a recycled world; a fresh server runs it on a
	// fresh one.
	_, gtext := testGraph(t)
	small := service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 4, Params: dmgm.Params{Seed: 3}}
	reused, err := cl.Submit(ctx, &small)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if final.Counters["service.pool_worlds_created"] != after.Counters["service.pool_worlds_created"] {
		t.Fatal("the job after the storm built a new world instead of reusing a canceled one")
	}
	_, freshCl := startServer(t, service.Config{QueueLen: 4, Workers: 1}, true)
	fresh, err := freshCl.Submit(ctx, &small)
	if err != nil {
		t.Fatal(err)
	}
	if reused.Result != fresh.Result || reused.Weight != fresh.Weight {
		t.Fatal("the job on a canceled-then-recycled world differs from the same job on a fresh server")
	}
}

// settledGoroutines is the goroutine count once the ones a finished request
// leaves winding down are gone.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m < n {
			n, i = m, 0
		}
	}
	return n
}

// healthz reads /healthz's count of jobs executing right now and of idle
// pooled worlds.
func healthz(t *testing.T, cl *client.Client) (inflight int64, idle int) {
	t.Helper()
	resp, err := http.Get(cl.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hb struct {
		Inflight   int64 `json:"inflight"`
		IdleWorlds int   `json:"idle_worlds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	return hb.Inflight, hb.IdleWorlds
}
