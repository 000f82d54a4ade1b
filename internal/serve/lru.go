package serve

import "container/list"

// lru is the version-tagged LRU core of the plan cache and the memo: a
// recency list plus key index, bounded by the sum of its entries' sizes
// (1 per entry for the plan cache's count bound, estimated bytes for the
// memo's byte bound). Every entry is tagged with the data version it was
// computed against, so a mutation can drop the entries it makes
// unreachable (purge). Not safe for concurrent use: each owner guards its
// lru with its own mutex.
type lru struct {
	bound, size int64
	ll          *list.List // front = most recently used
	entries     map[string]*list.Element
	// floor is the oldest data version a request can still be evaluating
	// against and have its results kept: purge raises it.
	floor     uint64
	evictions uint64
}

type lruEntry struct {
	key     string
	version uint64
	val     any
	size    int64
}

func newLRU(bound int64) lru {
	return lru{bound: bound, ll: list.New(), entries: make(map[string]*list.Element)}
}

// get returns key's value, marking it most recently used.
func (l *lru) get(key string) (any, bool) {
	el, ok := l.entries[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put stores val under key, evicting least-recently-used entries past the
// bound (never the entry just stored). Storing an existing key replaces
// its value; a put for a version purge has retired is declined.
func (l *lru) put(key string, version uint64, val any, size int64) {
	if version < l.floor {
		return
	}
	if el, ok := l.entries[key]; ok {
		e := el.Value.(*lruEntry)
		l.size += size - e.size
		e.val, e.version, e.size = val, version, size
		l.ll.MoveToFront(el)
	} else {
		l.entries[key] = l.ll.PushFront(&lruEntry{key: key, version: version, val: val, size: size})
		l.size += size
	}
	for l.size > l.bound && l.ll.Len() > 1 {
		l.evict(l.ll.Back())
	}
}

// purge drops every entry computed against a data version older than
// version and declines later puts for those versions. Once a mutation has
// published version, no new request derives an older key (every key is
// salted with its version), so those entries would only hold space until
// the LRU reached them; a request still evaluating an older snapshot
// misses and recomputes. Purged entries count as evictions.
func (l *lru) purge(version uint64) {
	l.floor = version
	for el := l.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*lruEntry).version < version {
			l.evict(el)
		}
		el = next
	}
}

func (l *lru) evict(el *list.Element) {
	e := el.Value.(*lruEntry)
	l.ll.Remove(el)
	delete(l.entries, e.key)
	l.size -= e.size
	l.evictions++
}
