package service

import (
	"fmt"
	"sync"

	"repro/internal/lru"
	"repro/internal/partition"
)

// partCache is the warm partition cache: partitions keyed by everything that
// determines them — (graph fingerprint, partitioner, ranks, seed) — held LRU
// by entry count. Partitioning dominates small-job latency (the multilevel
// partitioner costs more than a matching run on the same graph), and with
// the content-addressed store keeping graphs resident across jobs, repeat
// jobs over the same graph at different algorithm parameters would otherwise
// re-partition identically every time.
//
// Cached *partition.Partition values are shared across concurrent jobs
// without copying: every consumer (dgraph.Distribute and the verifiers)
// treats a partition as read-only, building per-rank local structures from
// it rather than mutating it.
type partCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *partition.Partition]
}

// newPartCache builds a cache holding up to cap partitions; cap <= 0
// disables it.
func newPartCache(cap int) *partCache {
	return &partCache{lru: lru.New[string, *partition.Partition](int64(cap), nil)}
}

// partitionKey identifies a partition by its full derivation.
func partitionKey(fp, partitioner string, ranks int, seed uint64) string {
	return fmt.Sprintf("%s|%s|p%d|s%d", fp, partitioner, ranks, seed)
}

func (c *partCache) get(key string) (*partition.Partition, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// put stores a partition; returns the number of evictions (0 or 1). A key
// already present is refreshed: same key ⇒ same derivation ⇒ same partition.
func (c *partCache) put(key string, p *partition.Partition) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, evicted := c.lru.Put(key, p, 1)
	return evicted
}
