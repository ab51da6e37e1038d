package service

import (
	"fmt"
	"sync"

	"repro/dmgm"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/partition"
)

// partCache is the warm partition cache: partitions keyed by everything that
// determines them — (graph fingerprint, partitioner, ranks, and the seed when
// the partitioner reads it) — held LRU by entry count. Partitioning dominates
// small-job latency (the multilevel partitioner costs more than a matching
// run on the same graph), and with the content-addressed store keeping graphs
// resident across jobs, repeat jobs over the same graph at different
// algorithm parameters would otherwise re-partition identically every time.
//
// An entry also carries the placement — the per-rank shares cut from the
// graph by its partition — once a job that named its graph by reference has
// run on it: such a caller has declared reuse, so the shares are cut once per
// entry instead of once per job. Retained shares are a full copy of the graph
// each, so they are charged by bytes against a budget of their own, least
// recently used dropped first, and an entry's eviction drops its shares too.
//
// Cached partitions and placements are shared across concurrent jobs without
// copying: every consumer (dgraph.Distribute, the kernels, the gathers and
// the verifiers) treats them as read-only.
type partCache struct {
	mu     sync.Mutex
	lru    *lru.Cache[string, *partEntry]      // cost 1 each
	shares *lru.Cache[string, *dmgm.Placement] // same keys, cost = Placement.Bytes
	bytesG *obs.Gauge                          // service.placement_bytes
}

// partEntry is one cached partition.
type partEntry struct {
	part *partition.Partition
	// build serialises cutting the shares retained under this entry: two
	// workers asking at once build once.
	build sync.Mutex
}

// newPartCache builds a cache holding up to cap partitions and up to
// shareBytes of retained shares; cap <= 0 disables both.
func newPartCache(cap int, shareBytes int64, reg *obs.Registry) *partCache {
	c := &partCache{bytesG: reg.Gauge("service.placement_bytes")}
	c.shares = lru.New[string, *dmgm.Placement](shareBytes, nil)
	c.lru = lru.New(int64(cap), func(key string, _ *partEntry) { c.shares.Remove(key) })
	return c
}

// partitionKey identifies a partition by its full derivation. The request
// seed is also the coloring tie-break seed, so it is kept out of the key of a
// partitioner that ignores it: a seed sweep on a block partition is one
// entry, not one per seed.
func partitionKey(fp, partitioner string, ranks int, seed uint64) string {
	if !partition.Seeded(partitioner) {
		return fmt.Sprintf("%s|%s|p%d", fp, partitioner, ranks)
	}
	return fmt.Sprintf("%s|%s|p%d|s%d", fp, partitioner, ranks, seed)
}

// get returns the entry under key and the placement retained with it, if any,
// marking both recently used.
func (c *partCache) get(key string) (*partEntry, *dmgm.Placement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.Get(key)
	if !ok {
		return nil, nil, false
	}
	pl, _ := c.shares.Get(key)
	return e, pl, true
}

// put stores a partition and returns its entry. A key already present keeps
// its entry, and whatever is retained under it: same key ⇒ same derivation ⇒
// same partition.
func (c *partCache) put(key string, p *partition.Partition) *partEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lru.Get(key); ok {
		return e
	}
	e := &partEntry{part: p}
	c.lru.Put(key, e, 1)
	c.bytesG.Set(c.shares.Cost())
	return e
}

// retain keeps pl under e's key, dropping least recently used shares beyond
// the byte budget (the newest always stays). It does nothing when e is no
// longer the cached entry — evicted meanwhile, or the cache is disabled.
func (c *partCache) retain(key string, e *partEntry, pl *dmgm.Placement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.lru.Get(key); ok && cur == e {
		c.shares.Put(key, pl, pl.Bytes())
		c.bytesG.Set(c.shares.Cost())
	}
}
