package storage

import (
	"fmt"
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
// ID 0 is always the null value. IDs assigned by BuildDict (the bulk of
// the domain, built at CSV load/ingest) are order-preserving: for values
// known at build time, id(v) < id(w) iff v.Compare(w) < 0, so ID order
// can stand in for Value order as well as equality. Values first seen
// after the build (query constants, rows a later mutation adds) are appended
// and keep only the equality guarantee.
//
// A Dict is safe for concurrent use: lookups take a read lock, misses
// append under the write lock, and decode-heavy operators snapshot an
// immutable View once per batch instead of locking per value.
type Dict struct {
	mu    sync.RWMutex
	ids   map[string]uint32 // normalized AppendKey -> ID
	vals  []Value           // ID -> first-interned representative
	kinds []Kind            // ID -> representative's kind (cache-friendly sidecar)

	// sortedLen is the number of IDs assigned by the order-preserving
	// build; IDs below it compare like their values.
	sortedLen uint32

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
	d.sortedLen = 1
	return d
}

// BuildDict scans every relation of db and interns each distinct value
// class with order-preserving IDs: null is 0 and the remaining classes
// are numbered in Value.Compare order. This is the load-time bulk build;
// later values append via Intern. Relations are read through their
// source iterators, so the build streams even over the disk engine (which
// only needs it when its data directory has no persisted DICT).
func BuildDict(db *Database) (*Dict, error) {
	classes := make(map[string]Value)
	var buf []byte
	for _, name := range db.Names() {
		err := ForEach(db.MustSource(name).Scan(), func(t Tuple) error {
			for _, v := range t {
				buf = v.AppendKey(buf[:0])
				if _, ok := classes[string(buf)]; !ok {
					classes[string(buf)] = v
				}
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
	d.sortedLen = uint32(len(d.vals))
	return d, nil
}

// newDictFromValues reconstructs a dictionary from a persisted snapshot:
// vals holds every class representative in ID order (index 0 must be the
// null value) and sortedLen is the order-preserved prefix length.
func newDictFromValues(vals []Value, sortedLen uint32) *Dict {
	d := &Dict{
		ids:   make(map[string]uint32, len(vals)),
		vals:  vals,
		kinds: make([]Kind, len(vals)),
	}
	for i, v := range vals {
		d.kinds[i] = v.Kind()
		d.ids[string(v.AppendKey(nil))] = uint32(i)
	}
	if sortedLen > uint32(len(vals)) {
		sortedLen = uint32(len(vals))
	}
	d.sortedLen = sortedLen
	return d
}

// snapshotValues returns a copy of the representative values in ID order
// plus the order-preserved prefix length, for persistence.
func (d *Dict) snapshotValues() ([]Value, uint32) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]Value(nil), d.vals...), d.sortedLen
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

// OrderPreserved reports whether both IDs were assigned by the
// order-preserving bulk build, in which case integer ID order equals
// Value.Compare order.
func (d *Dict) OrderPreserved(a, b uint32) bool {
	s := d.sorted()
	return a < s && b < s
}

func (d *Dict) sorted() uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.sortedLen
}

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
