package service

import (
	"sync"

	"repro/internal/lru"
)

// resultCache is a mutex-guarded LRU over completed job responses, keyed by
// Request.cacheKey — (graph fingerprint, algorithm, result-relevant
// params). Entries store the Response template by value; get returns a
// copy, so cached answers can be stamped with a fresh job id without racing
// other hits.
//
// Capacity is an entry count, not bytes: a result's dominant cost is the
// text serialization, which is proportional to the graph the caller already
// shipped inline, so a small entry bound keeps memory proportional to
// recent traffic.
type resultCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, Response]
}

// newResultCache builds a cache holding up to cap entries; cap <= 0
// disables caching (every lookup misses, every store is dropped).
func newResultCache(cap int) *resultCache {
	return &resultCache{lru: lru.New[string, Response](int64(cap), nil)}
}

// get returns a copy of the cached response and marks the entry recently
// used.
func (c *resultCache) get(key string) (Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// put stores (or refreshes) a response, evicting the least recently used
// entry beyond capacity.
func (c *resultCache) put(key string, val Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(key, val, 1)
}
