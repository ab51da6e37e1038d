package service

import (
	"sync"

	"repro/internal/lru"
)

// resultCache is a mutex-guarded LRU over completed job responses, keyed by
// Request.cacheKey — (graph fingerprint, algorithm, result-relevant
// params). Entries store the Response template by value; lookup returns a
// copy, so cached answers can be stamped with a fresh job id without racing
// other hits.
//
// Capacity is an entry count, not bytes: a result's dominant cost is the
// text serialization, which is proportional to the graph the caller already
// shipped inline, so a small entry bound keeps memory proportional to
// recent traffic.
//
// The cache also single-flights its misses: a miss on a key nobody is running
// makes the caller the leader of a flight, and identical misses that arrive
// before the leader lands wait on that flight instead of running the job
// again (Server.lookup).
type resultCache struct {
	mu      sync.Mutex
	lru     *lru.Cache[string, Response]
	flights map[string]*flight // misses being run, by key
}

// flight is one result-cache miss being run. Its followers wait on done;
// resp is the leader's answer, nil when the leader failed or timed out.
type flight struct {
	done chan struct{}
	resp *Response
}

// newResultCache builds a cache holding up to cap entries; cap <= 0
// disables caching (every lookup misses, every store is dropped).
func newResultCache(cap int) *resultCache {
	return &resultCache{lru: lru.New[string, Response](int64(cap), nil), flights: map[string]*flight{}}
}

// lookup returns a copy of the cached response and marks the entry recently
// used (hit); or else the flight of an identical miss already running; or
// else a new flight, which the caller leads and must land. The entry and the
// flight are looked up under one lock, and a leader's result is deposited
// before its flight is landed, so a caller sees one or the other — never
// neither, which would run the job twice.
func (c *resultCache) lookup(key string) (resp Response, hit bool, f *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if resp, ok := c.lru.Get(key); ok {
		return resp, true, nil, false
	}
	if f, ok := c.flights[key]; ok {
		return Response{}, false, f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	return Response{}, false, f, true
}

// land ends the flight the caller leads with its answer (nil on failure) and
// wakes the followers. The answer is copied: the leader goes on stamping its
// own.
func (c *resultCache) land(key string, f *flight, resp *Response) {
	if resp != nil {
		cp := *resp
		f.resp = &cp
	}
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
}

// put stores (or refreshes) a response, evicting the least recently used
// entry beyond capacity.
func (c *resultCache) put(key string, val Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(key, val, 1)
}
