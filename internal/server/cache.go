package server

import (
	"container/list"
	"sync"
)

// resultCache is a size-bounded LRU of canonical response bodies keyed
// by wire.CanonicalRunKeyV2, the JSON encoding of the resolved (spec,
// plan) pair.  Simulations are deterministic, so a cached
// body is byte-identical to what re-simulating would produce; serving
// the stored bytes verbatim is both the fast path and the correctness
// guarantee.
type resultCache struct {
	mu      sync.Mutex
	limit   int
	entries map[string]*list.Element
	order   *list.List // of *cacheItem; front = most recently used
	hits    uint64
	misses  uint64
	evicted uint64
}

type cacheItem struct {
	key  string
	body []byte
}

// CacheStats is a snapshot of the result cache's counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// newResultCache returns a cache bounded to limit entries (<= 0 means
// unbounded).
func newResultCache(limit int) *resultCache {
	return &resultCache{
		limit:   limit,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Get returns the cached body for key, marking it most recently used.
func (c *resultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(e)
	return e.Value.(*cacheItem).body, true
}

// Put stores body under key, evicting the least-recently-used entries
// beyond the bound.  Storing an existing key refreshes its recency; the
// body is identical by construction (deterministic simulations), so
// which copy survives is immaterial.
func (c *resultCache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.order.MoveToFront(e)
		e.Value.(*cacheItem).body = body
		return
	}
	c.entries[key] = c.order.PushFront(&cacheItem{key: key, body: body})
	for c.limit > 0 && len(c.entries) > c.limit {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheItem).key)
		c.evicted++
	}
}

// Stats snapshots the counters.
func (c *resultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evicted, Entries: len(c.entries)}
}
