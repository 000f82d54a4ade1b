package storage

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Dict is the per-database value dictionary: an intern table mapping each
// semantic equality class of Values (see Value.Equal — Int(1) and
// Float(1) share a class) to a dense uint32 ID. The columnar executor
// probes, deduplicates, and groups on these IDs, so two IDs are equal
// exactly when the values they stand for are Equal; the boxed Value is
// recovered only at pipeline sinks.
//
// ID 0 is always the null value. BuildDict (the bulk of the domain, built
// at CSV load/ingest) numbers the classes in Value.Compare order, and the
// IDs below OrderExactLen are order-exact: for two of them,
// id(v) < id(w) iff v.Compare(w) < 0, so comparing the IDs as integers
// decides what comparing the values would. Values first seen after the
// build (query constants, rows a later mutation adds) are appended past
// that prefix and keep only the equality guarantee.
//
// A Dict is safe for concurrent use: lookups take a read lock, misses
// append under the write lock, and decode-heavy operators snapshot an
// immutable View once per batch instead of locking per value.
type Dict struct {
	mu    sync.RWMutex
	ids   map[string]uint32 // normalized AppendKey -> ID
	vals  []Value           // ID -> first-interned representative
	kinds []Kind            // ID -> representative's kind (cache-friendly sidecar)

	// exactLen is the order-exact prefix length (see orderExactLen),
	// fixed when the dictionary is built or loaded.
	exactLen uint32

	hits   atomic.Uint64
	misses atomic.Uint64
}

// NullID is the reserved dictionary ID of the null value.
const NullID uint32 = 0

// NewDict returns an empty dictionary holding only the null value.
func NewDict() *Dict {
	d := &Dict{
		ids:   make(map[string]uint32),
		vals:  []Value{Null()},
		kinds: []Kind{KindNull},
	}
	d.ids[string(Null().AppendKey(nil))] = NullID
	d.exactLen = 1
	return d
}

// BuildDict scans every relation of db and interns each distinct value
// class with order-preserving IDs: null is 0 and the remaining classes
// are numbered in Value.Compare order. The whole build is order-exact
// unless the domain holds a value on which Compare is not a total order
// of the classes (see orderExactLen); then only null is. This is the
// load-time bulk build; later values append via Intern. An in-memory
// relation contributes its classes' representatives, other sources their
// scanned values (a data directory's engines start from its persisted
// DICT instead).
func BuildDict(db *Database) (*Dict, error) {
	classes := make(map[string]Value)
	var buf []byte
	note := func(v Value) {
		buf = v.AppendKey(buf[:0])
		if _, ok := classes[string(buf)]; !ok {
			classes[string(buf)] = v
		}
	}
	for _, name := range db.Names() {
		src := db.MustSource(name)
		if r, ok := src.(*Relation); ok {
			r.eachClass(note) // one value per class, no decoded tuples
			continue
		}
		err := ForEach(src.Scan(), func(t Tuple) error {
			for _, v := range t {
				note(v)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("storage: building the dictionary over %q: %w", name, err)
		}
	}
	delete(classes, string(Null().AppendKey(nil)))
	ordered := make([]Value, 0, len(classes))
	for _, v := range classes {
		ordered = append(ordered, v)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Compare(ordered[j]) < 0 })
	d := NewDict()
	d.vals = append(d.vals, ordered...)
	d.kinds = d.kinds[:1]
	for _, v := range ordered {
		d.kinds = append(d.kinds, v.Kind())
	}
	for i, v := range ordered {
		d.ids[string(v.AppendKey(nil))] = uint32(i + 1)
	}
	d.exactLen = orderExactLen(d.vals)
	return d, nil
}

// orderExactLen returns how many leading IDs of vals (ID order, vals[0]
// the null value) are order-exact. Integer order on those IDs equals
// Value.Compare order only if Compare is a strict total order on their
// classes, which fails for two kinds of value: a NaN compares equal to
// every number, and an Int beyond ±2^53 compares against floats after
// rounding, so Int(2^53+1) and Float(2^53) compare equal yet are
// distinct classes. If vals holds either, only null is order-exact.
// Otherwise the prefix runs while the values strictly increase, which
// covers a whole bulk build and stops at the first value a later Intern
// appended out of order.
func orderExactLen(vals []Value) uint32 {
	const maxExact = 1 << 53 // every int64 of at most this magnitude is a float64
	for _, v := range vals {
		if v.kind == KindFloat && math.IsNaN(v.f) || v.kind == KindInt && (v.i > maxExact || v.i < -maxExact) {
			return 1
		}
	}
	n := 1
	for n < len(vals) && vals[n-1].Compare(vals[n]) < 0 {
		n++
	}
	return uint32(n)
}

// newDictFromValues reconstructs a dictionary from a persisted snapshot:
// vals holds every class representative in ID order (index 0 must be the
// null value), the first base of them from the bulk build. The order-exact
// prefix is re-derived from those, not taken from the file; the values
// appended after them lie past it, as they did when they were interned.
func newDictFromValues(vals []Value, base int) *Dict {
	d := &Dict{
		ids:   make(map[string]uint32, len(vals)),
		vals:  vals,
		kinds: make([]Kind, len(vals)),
	}
	for i, v := range vals {
		d.kinds[i] = v.Kind()
		d.ids[string(v.AppendKey(nil))] = uint32(i)
	}
	d.exactLen = orderExactLen(vals[:base])
	return d
}

// Len returns the number of interned value classes (including null).
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.vals)
}

// Hits and Misses report the cumulative Intern outcomes: a hit found the
// value already interned, a miss appended a fresh ID.
func (d *Dict) Hits() uint64   { return d.hits.Load() }
func (d *Dict) Misses() uint64 { return d.misses.Load() }

// Intern returns the ID of v's equality class, appending a fresh ID if
// the class is new. The key buffer is reused across the fast path; only
// a genuinely new class allocates.
func (d *Dict) Intern(v Value) uint32 {
	var arr [24]byte
	key := v.AppendKey(arr[:0])
	d.mu.RLock()
	id, ok := d.ids[string(key)]
	d.mu.RUnlock()
	if ok {
		d.hits.Add(1)
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[string(key)]; ok { // raced with another writer
		d.hits.Add(1)
		return id
	}
	d.misses.Add(1)
	id = uint32(len(d.vals))
	d.vals = append(d.vals, v)
	d.kinds = append(d.kinds, v.Kind())
	d.ids[string(key)] = id
	return id
}

// Lookup returns the ID of v's class without interning; ok is false when
// the class has never been seen.
func (d *Dict) Lookup(v Value) (uint32, bool) {
	var arr [24]byte
	key := v.AppendKey(arr[:0])
	d.mu.RLock()
	id, ok := d.ids[string(key)]
	d.mu.RUnlock()
	return id, ok
}

// Value returns the representative value of an ID: the first value of
// the class the dictionary saw (so a class populated from base data
// round-trips to the stored value; only cross-relation Int/Float aliases
// can decode to the Equal sibling kind).
func (d *Dict) Value(id uint32) Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.vals[id]
}

// OrderExactLen returns the length of the order-exact ID prefix: two IDs
// below it compare as integers exactly as their values compare under
// Value.Compare. It never changes after the build or load, so an operator
// reads it once; IDs at or past it must be decoded to compare.
func (d *Dict) OrderExactLen() uint32 { return d.exactLen }

// View returns a decode snapshot. The dictionary only ever appends, so a
// view taken after an ID was assigned can decode that ID lock-free;
// operators refresh their view when they meet an ID past the snapshot.
func (d *Dict) View() DictView {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DictView{vals: d.vals, kinds: d.kinds}
}

// DictView is an immutable decode snapshot of a Dict: plain slice reads,
// no locking. Valid forever (the dict never mutates assigned IDs), but
// only covers IDs below Len at snapshot time.
type DictView struct {
	vals  []Value
	kinds []Kind
}

// Len returns the number of IDs the view covers.
func (v DictView) Len() int { return len(v.vals) }

// Value decodes an ID covered by the view.
func (v DictView) Value(id uint32) Value { return v.vals[id] }

// Kind returns the representative kind of an ID covered by the view.
func (v DictView) Kind(id uint32) Kind { return v.kinds[id] }
