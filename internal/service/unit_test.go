package service

import (
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// get is lookup read as a plain cache: hit or miss. A miss opens a flight
// that these tests never land, which nothing here waits on.
func (c *resultCache) get(key string) (Response, bool) {
	resp, hit, _, _ := c.lookup(key)
	return resp, hit
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.put("a", Response{JobID: "a"})
	c.put("b", Response{JobID: "b"})
	if _, ok := c.get("a"); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	c.put("c", Response{JobID: "c"})
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted; LRU order wrong")
	}
	if n := c.lru.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
}

func TestResultCacheCopySemantics(t *testing.T) {
	c := newResultCache(4)
	c.put("k", Response{JobID: "orig", Result: "r"})
	got, ok := c.get("k")
	if !ok {
		t.Fatal("miss")
	}
	got.JobID = "stamped" // hits stamp a fresh id on their copy
	again, _ := c.get("k")
	if again.JobID != "orig" {
		t.Fatalf("cache entry mutated through a returned copy: %q", again.JobID)
	}
}

func TestResultCacheRefresh(t *testing.T) {
	c := newResultCache(2)
	c.put("k", Response{Result: "v1"})
	c.put("k", Response{Result: "v2"})
	got, _ := c.get("k")
	if got.Result != "v2" {
		t.Fatalf("refresh kept %q", got.Result)
	}
	if n := c.lru.Len(); n != 1 {
		t.Fatalf("len = %d after refresh, want 1", n)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	c.put("k", Response{Result: "v"})
	if _, ok := c.get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if n := c.lru.Len(); n != 0 {
		t.Fatalf("disabled cache holds %d entries", n)
	}
}

func TestWorldPoolReuse(t *testing.T) {
	reg := obs.NewRegistry()
	p := newWorldPool(time.Minute, 2, reg)
	w1, err := p.get(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Run(func(c *mpi.Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p.put(w1)
	if got := p.idle(); got != 1 {
		t.Fatalf("idle = %d, want 1", got)
	}
	w2, err := p.get(2)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Fatal("pool built a fresh world instead of reusing the idle one")
	}
	if got := reg.Counter("service.pool_worlds_reused").Load(); got != 1 {
		t.Fatalf("reused counter = %d, want 1", got)
	}
	// Different rank count: never cross-served.
	w3, err := p.get(4)
	if err != nil {
		t.Fatal(err)
	}
	if w3.Size() != 4 {
		t.Fatalf("got a %d-rank world, want 4", w3.Size())
	}
	if got := reg.Counter("service.pool_worlds_created").Load(); got != 2 {
		t.Fatalf("created counter = %d, want 2", got)
	}
}

func TestWorldPoolDiscardsBeyondMaxIdle(t *testing.T) {
	reg := obs.NewRegistry()
	p := newWorldPool(time.Minute, 1, reg)
	w1, _ := p.get(2)
	w2, _ := p.get(2)
	p.put(w1)
	p.put(w2)
	if got := p.idle(); got != 1 {
		t.Fatalf("idle = %d, want 1 (maxIdle)", got)
	}
	if got := reg.Counter("service.pool_worlds_discarded").Load(); got != 1 {
		t.Fatalf("discarded counter = %d, want 1", got)
	}
}

func TestWorldPoolDiscardsUnresettable(t *testing.T) {
	reg := obs.NewRegistry()
	p := newWorldPool(time.Minute, 4, reg)
	w, err := p.get(2)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mpi.Comm) error {
			started <- struct{}{}
			<-release
			return nil
		})
	}()
	<-started
	p.put(w) // ranks still running: Reset refuses, world must be dropped
	if got := p.idle(); got != 0 {
		t.Fatalf("idle = %d, want 0 — a running world entered the free list", got)
	}
	if got := reg.Counter("service.pool_worlds_discarded").Load(); got != 1 {
		t.Fatalf("discarded counter = %d, want 1", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeDefaultsAndErrors(t *testing.T) {
	ok := Request{Algorithm: AlgoMatch, Graph: "g 1 0\n"}
	if msg := ok.normalize(64); msg != "" {
		t.Fatalf("valid request rejected: %s", msg)
	}
	if ok.Ranks != 4 || ok.Partition != "multilevel" || ok.Seed != 1 || ok.Superstep != 1000 || ok.Comm != "neighbors" {
		t.Fatalf("defaults not filled: %+v", ok)
	}
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"missing algorithm", Request{Graph: "g"}, "algorithm is required"},
		{"unknown algorithm", Request{Algorithm: "sort", Graph: "g"}, "unknown algorithm"},
		{"no graph", Request{Algorithm: AlgoMatch}, "exactly one of"},
		{"both graphs", Request{Algorithm: AlgoMatch, Graph: "g", GraphPath: "p"}, "exactly one of"},
		{"negative ranks", Request{Algorithm: AlgoMatch, Graph: "g", Ranks: -1}, "ranks must be positive"},
		{"ranks over bound", Request{Algorithm: AlgoMatch, Graph: "g", Ranks: 65}, "exceeds the server bound"},
		{"unknown partitioner", Request{Algorithm: AlgoMatch, Graph: "g", Partition: "hash"}, "unknown partitioner"},
		{"unknown comm", Request{Algorithm: AlgoColor, Graph: "g", Comm: "gossip"}, "unknown comm mode"},
		{"distance2 on match", Request{Algorithm: AlgoMatch, Graph: "g", Distance2: true}, "color jobs only"},
		{"negative timeout", Request{Algorithm: AlgoMatch, Graph: "g", TimeoutMillis: -1}, "timeout_ms"},
	}
	for _, tc := range cases {
		if msg := tc.req.normalize(64); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: normalize = %q, want substring %q", tc.name, msg, tc.want)
		}
	}
}

func TestCacheKeyCoversResultParams(t *testing.T) {
	base := Request{Algorithm: AlgoColor, Graph: "g"}
	if msg := base.normalize(64); msg != "" {
		t.Fatal(msg)
	}
	key := base.cacheKey("fp")
	variants := []func(r *Request){
		func(r *Request) { r.Ranks = 8 },
		func(r *Request) { r.Partition = "bfs" },
		func(r *Request) { r.Seed = 2 },
		func(r *Request) { r.Superstep = 500 },
		func(r *Request) { r.Comm = "broadcast" },
		func(r *Request) { r.Distance2 = true },
	}
	for i, mutate := range variants {
		v := base
		mutate(&v)
		if v.cacheKey("fp") == key {
			t.Errorf("variant %d did not change the cache key", i)
		}
	}
	if base.cacheKey("other") == key {
		t.Error("fingerprint not part of the cache key")
	}
	// Scheduling directives must NOT split the key: a cached result answers
	// requests regardless of their timeout.
	v := base
	v.TimeoutMillis = 5
	if v.cacheKey("fp") != key {
		t.Error("timeout_ms leaked into the cache key")
	}
	// Match ablation params split the key; color params stay out of match keys.
	m := Request{Algorithm: AlgoMatch, Graph: "g"}
	m.normalize(64)
	mk := m.cacheKey("fp")
	nb := m
	nb.NoBundle = true
	if nb.cacheKey("fp") == mk {
		t.Error("no_bundle not part of the match cache key")
	}
}

func TestRequestTimeoutClamped(t *testing.T) {
	def := time.Minute
	r := Request{}
	if got := r.timeout(def); got != def {
		t.Fatalf("zero timeout resolved to %v, want default", got)
	}
	r.TimeoutMillis = 100
	if got := r.timeout(def); got != 100*time.Millisecond {
		t.Fatalf("short timeout resolved to %v", got)
	}
	r.TimeoutMillis = (10 * time.Minute).Milliseconds()
	if got := r.timeout(def); got != def {
		t.Fatalf("long timeout not clamped: %v", got)
	}
}
