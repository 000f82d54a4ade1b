package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Relation is a named, set-semantics collection of tuples over a fixed list
// of columns. Duplicate inserts are ignored, preserving the set semantics
// the paper's optimization claims depend on (§2.3).
//
// Thread-safety contract: a Relation is single-writer. Insert and
// InsertValues mutate tuples, seen, and an internal key buffer without
// locking, so no mutation may run concurrently with any other access (the
// internal mutex guards only the lazy index cache, not the data). Once
// mutation stops, any number of goroutines may read concurrently —
// Tuples, Contains, ContainsKey, Len, and Index (which builds lazily under
// the internal lock) are all read-safe.
type Relation struct {
	name string
	cols []string

	tuples []Tuple
	// seen maps tuple Key -> present; a Subset builds it on first use
	// (keys), under seenOnce.
	seen     map[string]struct{}
	seenOnce sync.Once
	keyBuf   []byte // reusable Insert key buffer (single-writer)

	mu      sync.Mutex        // guards indexes
	indexes map[string]*Index // key: joined column positions
	ids     idCache           // lazy ID-space caches (see interned.go)
}

// NewRelation creates an empty relation with the given name and columns.
// Column names must be non-empty and unique.
func NewRelation(name string, cols ...string) *Relation {
	unique := make(map[string]struct{}, len(cols))
	for _, c := range cols {
		if c == "" {
			panic(fmt.Sprintf("storage: relation %q has an empty column name", name))
		}
		if _, dup := unique[c]; dup {
			panic(fmt.Sprintf("storage: relation %q has duplicate column %q", name, c))
		}
		unique[c] = struct{}{}
	}
	return &Relation{
		name:    name,
		cols:    append([]string(nil), cols...),
		seen:    make(map[string]struct{}),
		indexes: make(map[string]*Index),
	}
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Columns returns the column names. The returned slice must not be mutated.
func (r *Relation) Columns() []string { return r.cols }

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.cols) }

// Len returns the number of (distinct) tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// ColumnIndex returns the position of the named column, or -1.
func (r *Relation) ColumnIndex(col string) int {
	for i, c := range r.cols {
		if c == col {
			return i
		}
	}
	return -1
}

// Insert adds a tuple if not already present and reports whether it was
// added. The tuple is stored as-is; callers must not mutate it afterwards.
// Inserting invalidates any indexes built so far.
func (r *Relation) Insert(t Tuple) bool { return r.insert(t, false) }

// InsertCopy is Insert for a scratch tuple the caller goes on reusing: the
// relation stores a clone, made only when the tuple is actually added.
func (r *Relation) InsertCopy(t Tuple) bool { return r.insert(t, true) }

func (r *Relation) insert(t Tuple, clone bool) bool {
	if len(t) != len(r.cols) {
		panic(fmt.Sprintf("storage: arity mismatch inserting %d-tuple into %q(%d cols)",
			len(t), r.name, len(r.cols)))
	}
	// The reusable buffer means duplicate inserts allocate nothing; the key
	// string materializes only when the tuple is actually added.
	r.keyBuf = t.AppendKey(r.keyBuf[:0])
	seen := r.keys()
	if _, dup := seen[string(r.keyBuf)]; dup {
		return false
	}
	seen[string(r.keyBuf)] = struct{}{}
	if clone {
		t = t.Clone()
	}
	r.tuples = append(r.tuples, t)
	r.dropIndexes()
	return true
}

// dropIndexes discards the lazy index and interned-ID caches after a
// mutation.
func (r *Relation) dropIndexes() {
	r.mu.Lock()
	if len(r.indexes) > 0 {
		r.indexes = make(map[string]*Index)
	}
	r.mu.Unlock()
	r.ids.reset()
}

// InsertValues is Insert with variadic values, for convenience in tests and
// generators.
func (r *Relation) InsertValues(vs ...Value) bool { return r.Insert(Tuple(vs)) }

// Contains reports whether the relation holds the given tuple.
func (r *Relation) Contains(t Tuple) bool {
	_, ok := r.keys()[t.Key()]
	return ok
}

// ContainsKey reports membership for a tuple key encoding built with
// Tuple.AppendKey. It performs no allocation, so probe loops can reuse one
// buffer per worker. Safe for concurrent readers.
func (r *Relation) ContainsKey(key []byte) bool {
	_, ok := r.keys()[string(key)]
	return ok
}

// keys returns the membership set, building it on first use for a
// relation Subset made. Safe for concurrent readers.
func (r *Relation) keys() map[string]struct{} {
	r.seenOnce.Do(func() {
		if r.seen == nil {
			r.seen = make(map[string]struct{}, len(r.tuples))
			for _, t := range r.tuples {
				r.seen[t.Key()] = struct{}{}
			}
		}
	})
	return r.seen
}

// Subset returns a relation of r's tuples at the given row positions, in
// that order, under r's name and columns. Its membership set is built on
// first use, so a subset that is only read in ID form — a partition's
// view of a relation — never pays for it.
func (r *Relation) Subset(rows []int) *Relation {
	out := &Relation{name: r.name, cols: r.cols, tuples: make([]Tuple, len(rows)), indexes: make(map[string]*Index)}
	for k, i := range rows {
		out.tuples[k] = r.tuples[i]
	}
	return out
}

// Tuples returns the stored tuples in insertion order. The slice and its
// tuples must not be mutated.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Index returns (building on first use) a hash index on the given column
// positions. The index is dropped automatically on the next Insert.
// Index is safe to call from concurrent readers.
func (r *Relation) Index(cols []int) *Index {
	key := indexKey(cols)
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix, ok := r.indexes[key]; ok {
		return ix
	}
	ix := buildIndex(r, cols)
	r.indexes[key] = ix
	return ix
}

// DistinctCount returns the number of distinct values in the named column.
func (r *Relation) DistinctCount(col string) (int, error) {
	p := r.ColumnIndex(col)
	if p < 0 {
		return 0, fmt.Errorf("storage: relation %q has no column %q", r.name, col)
	}
	return r.Index([]int{p}).GroupCount(), nil
}

// Clone returns a deep-enough copy: tuples are shared (they are immutable by
// convention) but the container and membership set are independent.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.name, r.cols...)
	out.tuples = append([]Tuple(nil), r.tuples...)
	for k := range r.keys() {
		out.seen[k] = struct{}{}
	}
	return out
}

// Rename returns a shallow view of the relation with a different name and,
// optionally, different column names (pass nil to keep the originals).
func (r *Relation) Rename(name string, cols []string) *Relation {
	if cols == nil {
		cols = r.cols
	}
	if len(cols) != len(r.cols) {
		panic(fmt.Sprintf("storage: Rename of %q with %d columns (want %d)", r.name, len(cols), len(r.cols)))
	}
	out := NewRelation(name, cols...)
	out.tuples = r.tuples
	out.seen = r.keys()
	return out
}

// Sorted returns the tuples in lexicographic order (a fresh slice; the
// relation itself keeps insertion order). Useful for deterministic output.
func (r *Relation) Sorted() []Tuple {
	out := append([]Tuple(nil), r.tuples...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Equal reports whether two relations hold exactly the same set of tuples
// (names and column names are ignored; arity must match).
func (r *Relation) Equal(s *Relation) bool {
	if r.Arity() != s.Arity() || r.Len() != s.Len() {
		return false
	}
	seen := s.keys()
	for k := range r.keys() {
		if _, ok := seen[k]; !ok {
			return false
		}
	}
	return true
}

// String renders a short human-readable summary.
func (r *Relation) String() string {
	return fmt.Sprintf("%s(%s)[%d tuples]", r.name, strings.Join(r.cols, ", "), len(r.tuples))
}

// Dump renders the full relation, sorted, one tuple per line. Intended for
// small relations in examples and tests.
func (r *Relation) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s):\n", r.name, strings.Join(r.cols, ", "))
	for _, t := range r.Sorted() {
		b.WriteString("  ")
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func indexKey(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}
