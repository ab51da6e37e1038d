package service_test

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// TestIdenticalMissesRunOnce: identical requests that miss the result cache
// while the first of them is queued run the job once. The others wait on
// that run without a queue slot — the queue holds one job — and answer from
// it like a cache hit: byte-identical results under their own job ids, one
// more pool world and one more run than before, and nothing left in flight.
// A no_cache request for the same key neither joins nor leads: it asks the
// full queue for a slot of its own and is refused.
func TestIdenticalMissesRunOnce(t *testing.T) {
	_, gtext := testGraph(t)
	srv, cl := startServer(t, service.Config{QueueLen: 1, Workers: 1}, false)
	ctx := context.Background()
	req := service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2, Seed: 3}

	const n = 8
	type answer struct {
		resp *service.Response
		err  error
	}
	answers := make(chan answer, n)
	submit := func() {
		r := req
		resp, err := cl.Submit(ctx, &r)
		answers <- answer{resp, err}
	}
	go submit()
	waitMetric(t, cl, "service.queue_depth", 1) // the leader, queued
	for i := 1; i < n; i++ {
		go submit()
	}
	waitMetric(t, cl, "service.cache_coalesced", n-1)

	bypass := req
	bypass.NoCache = true
	var apiErr *client.APIError
	if _, err := cl.Submit(ctx, &bypass); !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("no_cache request with the queue full: %v, want a 429", err)
	}

	before, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ids := map[string]bool{}
	var result string
	ran := 0
	for i := 0; i < n; i++ {
		a := <-answers
		if a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
		if i == 0 {
			result = a.resp.Result
		} else if a.resp.Result != result {
			t.Fatal("coalesced requests answered different results")
		}
		if ids[a.resp.JobID] {
			t.Fatalf("job id %s answered twice", a.resp.JobID)
		}
		ids[a.resp.JobID] = true
		if !a.resp.Cached {
			ran++
		}
	}
	if ran != 1 {
		t.Fatalf("%d answers came from a run of their own, want 1", ran)
	}
	after, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	moved := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	worlds := moved("service.pool_worlds_created") + moved("service.pool_worlds_reused")
	runs := after.Histograms["service.run_ms"].Count - before.Histograms["service.run_ms"].Count
	if worlds != 1 || runs != 1 || moved("service.jobs_completed") != 1 {
		t.Fatalf("%d worlds acquired, %d runs, %d jobs completed for %d identical requests; want 1 each",
			worlds, runs, moved("service.jobs_completed"), n)
	}
	// Every request past admission counts one hit or one miss: the leader's
	// miss and the 429's were counted before the start, the followers' hits after.
	if moved("service.cache_hits") != n-1 || moved("service.cache_misses") != 0 {
		t.Fatalf("cache hits +%d, misses +%d after the start; want +%d, +0",
			moved("service.cache_hits"), moved("service.cache_misses"), n-1)
	}
	if inflight, _ := healthz(t, cl); inflight != 0 {
		t.Fatalf("/healthz inflight %d after every answer, want 0", inflight)
	}
}

// TestFollowerRunsWhenItsLeaderTimesOut: a request waiting on an identical
// request's run is not bound to its fate. The leader's deadline passes in
// the queue (504); the follower, whose own deadline is the server's, looks
// again, misses, and runs the job itself.
func TestFollowerRunsWhenItsLeaderTimesOut(t *testing.T) {
	_, gtext := testGraph(t)
	srv, cl := startServer(t, service.Config{QueueLen: 4, Workers: 1}, false)
	ctx := context.Background()
	req := service.Request{Algorithm: service.AlgoMatch, Graph: gtext, Ranks: 2, Seed: 3}

	leader := make(chan error, 1)
	go func() {
		r := req
		r.TimeoutMillis = 30
		_, err := cl.Submit(ctx, &r)
		leader <- err
	}()
	waitMetric(t, cl, "service.queue_depth", 1)
	follower := make(chan *service.Response, 1)
	go func() {
		r := req
		resp, err := cl.Submit(ctx, &r)
		if err != nil {
			t.Error(err)
		}
		follower <- resp
	}()
	waitMetric(t, cl, "service.cache_coalesced", 1)
	time.Sleep(60 * time.Millisecond) // the leader's deadline passes while it is queued
	srv.Start()

	var apiErr *client.APIError
	if err := <-leader; !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("leader: %v, want a 504", err)
	}
	resp := <-follower
	if resp == nil {
		t.FailNow()
	}
	if resp.Cached {
		t.Fatal("the follower of a timed-out leader answered from a cache, not from its own run")
	}
	_, freshCl := startServer(t, service.Config{QueueLen: 4, Workers: 1}, true)
	r := req
	fresh, err := freshCl.Submit(ctx, &r)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result != fresh.Result {
		t.Fatal("the follower's own run differs from the same job on a fresh server")
	}
}
