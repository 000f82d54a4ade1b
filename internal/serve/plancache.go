package serve

import "sync"

// PlanCache is a count-bounded LRU of prepared evaluation entries, keyed
// on (canonical program text, strategy, database version) — the caller
// composes the key string. A hit skips analysis, flock construction, and
// planning for ad-hoc /query traffic; alpha-equivalent programs share an
// entry because the canonical text is the key's first component. Entries
// are tagged with their data version, so a mutation drops the ones it
// retires (Purge). Safe for concurrent use; a nil *PlanCache is a valid
// always-miss cache.
type PlanCache struct {
	mu           sync.Mutex
	items        lru
	hits, misses uint64
}

// NewPlanCache returns a cache bounded to capacity entries; a capacity
// <= 0 yields nil (caching disabled).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		return nil
	}
	return &PlanCache{items: newLRU(int64(capacity))}
}

// Get returns the cached entry for key and marks it most recently used.
func (c *PlanCache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.items.get(key)
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return v, true
}

// Put stores an entry of data version 0 (see PutAt).
func (c *PlanCache) Put(key string, v any) { c.PutAt(key, 0, v) }

// PutAt stores an entry computed against data version, evicting from the
// LRU tail past the capacity. Storing an existing key replaces its value;
// a put for a version Purge has retired is declined.
func (c *PlanCache) PutAt(key string, version uint64, v any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items.put(key, version, v, 1)
}

// Purge drops every entry of a data version older than version, counting
// each as an eviction, and declines later puts for those versions.
func (c *PlanCache) Purge(version uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items.purge(version)
}

// PlanStats is a snapshot of the cache's occupancy and cumulative
// traffic counters.
type PlanStats struct {
	Entries   int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats returns a snapshot (zero for a nil cache).
func (c *PlanCache) Stats() PlanStats {
	if c == nil {
		return PlanStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanStats{Entries: c.items.ll.Len(), Capacity: int(c.items.bound), Hits: c.hits, Misses: c.misses, Evictions: c.items.evictions}
}
