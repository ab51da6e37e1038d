// Package lru is the one eviction policy of the serving layer: a
// least-recently-used map bounded by a caller-defined cost. The result cache
// and the partition cache count entries (cost 1 each), the graph store, its
// spill tier and the shares retained under partition-cache entries count
// bytes; all five share the rules below instead of each carrying its own
// list, map and eviction loop.
//
//   - Capacity is a total cost. Put evicts from the least recently used end
//     until the total fits again.
//   - The newest entry always stays, so one value costlier than the whole
//     capacity is held rather than thrashed.
//   - A capacity <= 0 disables the cache: every Get misses, every Put is
//     dropped.
//   - The on-evict callback fires exactly once per entry the capacity rule
//     pushes out — the place to keep a secondary index or a to-delete list in
//     step. It does not fire for Remove (the caller chose that entry and gets
//     a plain report back) or when Put refreshes an existing key.
//
// A Cache is never locked internally. Every user already holds a mutex that
// also covers what hangs off the cache — byte gauges, the graph store's text
// and path indexes, a doomed-file list — so a second lock inside would only add an ordering to
// get wrong; the callback runs under the caller's lock for the same reason.
package lru

import "container/list"

// Cache is a cost-bounded LRU map. Not safe for concurrent use; see the
// package comment.
type Cache[K comparable, V any] struct {
	capacity int64
	cost     int64
	ll       *list.List // front = most recently used
	m        map[K]*list.Element
	onEvict  func(K, V)
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New builds a cache holding up to capacity total cost. onEvict may be nil.
func New[K comparable, V any](capacity int64, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, ll: list.New(), m: make(map[K]*list.Element), onEvict: onEvict}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	el, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Contains reports presence without touching the recency order.
func (c *Cache[K, V]) Contains(k K) bool {
	_, ok := c.m[k]
	return ok
}

// Put stores v under k at the given cost and marks it most recently used; an
// existing key has its value and cost replaced. It reports whether k was new
// and how many entries the capacity rule evicted to make room.
func (c *Cache[K, V]) Put(k K, v V, cost int64) (inserted bool, evicted int) {
	if c.capacity <= 0 {
		return false, 0
	}
	if el, ok := c.m[k]; ok {
		e := el.Value.(*entry[K, V])
		c.cost += cost - e.cost
		e.val, e.cost = v, cost
		c.ll.MoveToFront(el)
	} else {
		c.m[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v, cost: cost})
		c.cost += cost
		inserted = true
	}
	for c.cost > c.capacity && c.ll.Len() > 1 {
		e := c.drop(c.ll.Back())
		evicted++
		if c.onEvict != nil {
			c.onEvict(e.key, e.val)
		}
	}
	return inserted, evicted
}

// Remove deletes k without firing the on-evict callback and reports whether
// it was present.
func (c *Cache[K, V]) Remove(k K) bool {
	el, ok := c.m[k]
	if ok {
		c.drop(el)
	}
	return ok
}

func (c *Cache[K, V]) drop(el *list.Element) *entry[K, V] {
	e := c.ll.Remove(el).(*entry[K, V])
	delete(c.m, e.key)
	c.cost -= e.cost
	return e
}

// Len reports the entry count.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Cost reports the total cost held.
func (c *Cache[K, V]) Cost() int64 { return c.cost }
