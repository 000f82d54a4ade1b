package serve

import (
	"sync"

	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// Memo is the byte-bounded LRU behind core.SubqueryMemo: one LRU over
// both memo planes (extended answers under an "e|" key prefix, survivor
// sets under "s|"), bounded by an estimate of the entries' resident bytes.
// An extended answer is pointer-free dictionary-ID rows; a survivor set is
// the relation (ID columns and their set) a hit returns as the answer.
// Values handed to a put become shared and immutable — every later hit
// returns the same value,
// which is safe because relation reads (including lazy index builds) are
// concurrent-safe once mutation stops, and ID rows are never written.
//
// Every entry is tagged with the data version it was computed against
// (see At), so a mutation can drop the entries it makes unreachable
// (Purge). Safe for concurrent use; a nil *Memo is a valid always-miss
// memo, but callers should then leave EvalOptions.Memo nil entirely so the
// engine skips the memo route.
type Memo struct {
	mu    sync.Mutex
	items lru // values are *physical.IDRows or *storage.Relation

	extHits, extMisses   uint64
	survHits, survMisses uint64
}

// NewMemo returns a memo bounded to maxBytes of estimated payload;
// maxBytes <= 0 yields nil (memoization disabled).
func NewMemo(maxBytes int64) *Memo {
	if maxBytes <= 0 {
		return nil
	}
	return &Memo{items: newLRU(maxBytes)}
}

// entryBytes is the fixed charge of every entry (list element, map slot,
// key, headers), so even an empty result counts against the bound.
const entryBytes = 256

// relBytes estimates a relation's resident footprint: its ID columns, as
// idRowsBytes charges them, plus its dedup set at the worst case of 32
// bytes a row (8-byte slots, doubled at load 1/2).
func relBytes(rel *storage.Relation) int64 {
	n := int64(rel.Len())
	return int64(rel.Arity())*(4*n+24) + 32*n + entryBytes
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
	val, _ := m.items.get("e|" + key)
	rows, ok := val.(*physical.IDRows)
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
	val, _ := m.items.get("s|" + key)
	rel, ok := val.(*storage.Relation)
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

// put stores val under key. An entry bigger than a quarter of the bound
// is not cached at all — one oversized result must not flush the whole
// memo — and neither is one computed against a version Purge has retired.
func (m *Memo) put(key string, version uint64, val any, size int64) {
	if m == nil || size > m.items.bound/4 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.items.put(key, version, val, size)
}

// Purge drops every entry computed against a data version older than
// version, counting each as an eviction, and declines later puts for
// those versions.
func (m *Memo) Purge(version uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.items.purge(version)
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
		Entries: m.items.ll.Len(), Bytes: m.items.size, MaxBytes: m.items.bound,
		ExtHits: m.extHits, ExtMisses: m.extMisses,
		SurvHits: m.survHits, SurvMiss: m.survMisses,
		Evictions: m.items.evictions,
	}
}
