package serve

import (
	"container/list"
	"sync"

	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// Memo is the byte-bounded LRU behind core.SubqueryMemo: one LRU over
// both memo planes (extended answers under an "e|" key prefix, survivor
// sets under "s|"), bounded by an estimate of the entries' resident bytes.
// An extended answer is pointer-free dictionary-ID rows; a survivor set is
// the boxed relation a hit returns as the answer. Values handed to a put
// become shared and immutable — every later hit returns the same value,
// which is safe because relation reads (including lazy index builds) are
// concurrent-safe once mutation stops, and ID rows are never written.
//
// Every entry is tagged with the data version it was computed against
// (see At), so a mutation can drop the entries it makes unreachable
// (Purge). Safe for concurrent use; a nil *Memo is a valid always-miss
// memo, but callers should then leave EvalOptions.Memo nil entirely so the
// engine skips the memo route.
type Memo struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	// floor is the oldest data version a request can still be evaluating
	// against and have its results kept: Purge raises it.
	floor uint64

	extHits, extMisses   uint64
	survHits, survMisses uint64
	evictions            uint64
}

type memoElem struct {
	key     string
	version uint64
	val     any // *physical.IDRows or *storage.Relation
	size    int64
}

// NewMemo returns a memo bounded to maxBytes of estimated payload;
// maxBytes <= 0 yields nil (memoization disabled).
func NewMemo(maxBytes int64) *Memo {
	if maxBytes <= 0 {
		return nil
	}
	return &Memo{maxBytes: maxBytes, ll: list.New(), entries: make(map[string]*list.Element)}
}

// entryBytes is the fixed charge of every entry (list element, map slot,
// key, headers), so even an empty result counts against the bound.
const entryBytes = 256

// relBytes estimates a boxed relation's resident footprint: per-tuple
// slice and map-key overhead plus boxed values.
func relBytes(rel *storage.Relation) int64 {
	return int64(rel.Len())*int64(48+24*rel.Arity()) + entryBytes
}

// idRowsBytes estimates ID rows at 4 bytes per cell plus a slice header
// per column.
func idRowsBytes(rows *physical.IDRows) int64 {
	return int64(len(rows.Cols))*(4*int64(rows.N)+24) + entryBytes
}

// At returns the memo as evaluations against data version v see it: the
// core.SubqueryMemo a request mounts. Its puts are tagged with v.
func (m *Memo) At(v uint64) MemoView { return MemoView{m: m, version: v} }

// MemoView is a Memo scoped to one data version (see Memo.At).
type MemoView struct {
	m       *Memo
	version uint64
}

// Extended returns the memoized extended answer for key. Rows interned in
// another dictionary than dict count as a miss.
func (v MemoView) Extended(key string, dict *storage.Dict) (*physical.IDRows, bool) {
	m := v.m
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rows, ok := m.lookup("e|" + key).(*physical.IDRows)
	if !ok || rows.Dict != dict {
		m.extMisses++
		return nil, false
	}
	m.extHits++
	return rows, true
}

// PutExtended stores an extended answer.
func (v MemoView) PutExtended(key string, rows *physical.IDRows) {
	v.m.put("e|"+key, v.version, rows, idRowsBytes(rows))
}

// Survivors returns the memoized survivor set for key.
func (v MemoView) Survivors(key string) (*storage.Relation, bool) {
	m := v.m
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rel, ok := m.lookup("s|" + key).(*storage.Relation)
	if !ok {
		m.survMisses++
		return nil, false
	}
	m.survHits++
	return rel, true
}

// PutSurvivors stores a survivor set.
func (v MemoView) PutSurvivors(key string, rel *storage.Relation) {
	v.m.put("s|"+key, v.version, rel, relBytes(rel))
}

// lookup returns key's value, marking it most recently used; nil when
// absent. Callers hold mu.
func (m *Memo) lookup(key string) any {
	el, ok := m.entries[key]
	if !ok {
		return nil
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memoElem).val
}

// put stores val under key, evicting least-recently-used entries past the
// byte bound. An entry bigger than a quarter of the bound is not cached
// at all — one oversized result must not flush the whole memo — and
// neither is one computed against a version Purge has retired.
func (m *Memo) put(key string, version uint64, val any, size int64) {
	if m == nil || size > m.maxBytes/4 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if version < m.floor {
		return
	}
	if el, ok := m.entries[key]; ok {
		e := el.Value.(*memoElem)
		m.bytes += size - e.size
		e.val, e.version, e.size = val, version, size
		m.ll.MoveToFront(el)
	} else {
		m.entries[key] = m.ll.PushFront(&memoElem{key: key, version: version, val: val, size: size})
		m.bytes += size
	}
	for m.bytes > m.maxBytes && m.ll.Len() > 1 {
		m.evict(m.ll.Back())
	}
}

// Purge drops every entry computed against a data version older than
// version and declines later puts for those versions. Once a mutation has
// published version, no new request derives an older key (every key is
// salted with its version), so those entries would only hold space until
// the LRU reached them; a request still evaluating an older snapshot
// misses and recomputes. Purged entries count as evictions.
func (m *Memo) Purge(version uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.floor = version
	for el := m.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*memoElem).version < version {
			m.evict(el)
		}
		el = next
	}
}

// evict removes one entry. Callers hold mu.
func (m *Memo) evict(el *list.Element) {
	e := el.Value.(*memoElem)
	m.ll.Remove(el)
	delete(m.entries, e.key)
	m.bytes -= e.size
	m.evictions++
}

// MemoStats is a snapshot of the memo's occupancy and cumulative
// traffic counters. Extended and survivor lookups are counted apart: a
// threshold-tightened re-run of a flock shows as an extended hit plus a
// survivor miss.
type MemoStats struct {
	Entries   int
	Bytes     int64
	MaxBytes  int64
	ExtHits   uint64
	ExtMisses uint64
	SurvHits  uint64
	SurvMiss  uint64
	Evictions uint64
}

// Stats returns a snapshot (zero for a nil memo).
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{
		Entries: m.ll.Len(), Bytes: m.bytes, MaxBytes: m.maxBytes,
		ExtHits: m.extHits, ExtMisses: m.extMisses,
		SurvHits: m.survHits, SurvMiss: m.survMisses,
		Evictions: m.evictions,
	}
}
