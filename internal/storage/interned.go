package storage

import (
	"sync"
	"sync/atomic"
)

// This file holds the relation-side caches of the columnar interned
// executor: the column-major ID image of a relation, its membership set
// (an IDTable of its rows, the columnar ContainsKey), and its ID indexes
// (an IDTable of keys plus row lists, the columnar Index; idtable.go). All
// three are lazy, cached per relation and built under one mutex, and
// dropped together on any mutation. Keys are the dictionary IDs of
// internal/storage.Dict, so key equality is exactly Value.Equal — the
// same classes the byte AppendKey encoding produces.

// internedState is the ID-space image of one relation for one dictionary:
// the column-major IDs plus the membership set and hash indexes derived
// from them. Immutable once published except for the lazily added set and
// indexes, which idCache guards.
type internedState struct {
	dict *Dict
	n    int                 // row count (explicit: a relation may have zero columns)
	cols [][]uint32          // column-major IDs
	set  *IDTable            // full-tuple membership; nil until built
	idx  map[string]*IDIndex // indexKey(cols) -> index
}

// columnBuilder is what an idCache needs of the relation embedding it: the
// row count and the engine's column build (from boxed tuples in memory,
// from the column file on disk).
type columnBuilder interface {
	Len() int
	internColumns(d *Dict, check func() error) ([][]uint32, error)
}

// idCache holds a relation's lazily built internedState; both engines
// embed one. A relation normally meets exactly one dictionary (its
// database's); a different dictionary rebuilds the cache. mu serializes
// builds (columns, set, indexes); the published state is read without it.
type idCache struct {
	mu sync.Mutex
	st atomic.Pointer[internedState]
}

// state returns the cache for d, building src's columns on first use. A
// failed (or cancelled) build caches nothing. Callers hold c.mu.
func (c *idCache) state(src columnBuilder, d *Dict, check func() error) (*internedState, error) {
	if st := c.st.Load(); st != nil && st.dict == d {
		return st, nil
	}
	cols, err := src.internColumns(d, check)
	if err != nil {
		return nil, err
	}
	return c.seed(d, src.Len(), cols), nil
}

func (c *idCache) columns(src columnBuilder, d *Dict, check func() error) ([][]uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.state(src, d, check)
	if err != nil {
		return nil, err
	}
	return st.cols, nil
}

func (c *idCache) idSet(src columnBuilder, d *Dict, check func() error) (*IDTable, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.state(src, d, check)
	if err != nil {
		return nil, err
	}
	if st.set == nil {
		st.set = newIDSet(st.cols, st.n)
	}
	return st.set, nil
}

func (c *idCache) idIndex(src columnBuilder, d *Dict, cols []int, check func() error) (*IDIndex, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.state(src, d, check)
	if err != nil {
		return nil, err
	}
	key := indexKey(cols)
	ix, ok := st.idx[key]
	if !ok {
		ix = buildIDIndex(st.cols, cols, st.n)
		st.idx[key] = ix
	}
	return ix, nil
}

// seed publishes pre-computed columns, sparing the build.
func (c *idCache) seed(d *Dict, n int, cols [][]uint32) *internedState {
	st := &internedState{dict: d, n: n, cols: cols, idx: make(map[string]*IDIndex)}
	c.st.Store(st)
	return st
}

// reset drops the cache; the in-memory relation calls it on every
// mutation, so the common nothing-built case is one load.
func (c *idCache) reset() {
	if c.st.Load() != nil {
		c.st.Store(nil)
	}
}

// internBatch is the number of rows a column build interns between two
// consultations of its check function.
const internBatch = 1024

// internColumns is the in-memory column build: tuples interned into one
// ID slice per column, consulting check (when non-nil) every internBatch
// rows so a deadline can interrupt a large first-touch build.
func (r *Relation) internColumns(d *Dict, check func() error) ([][]uint32, error) {
	n := len(r.tuples)
	cols := make([][]uint32, len(r.cols))
	for j := range cols {
		cols[j] = make([]uint32, n)
	}
	for lo := 0; lo < n; lo += internBatch {
		if check != nil {
			if err := check(); err != nil {
				return nil, err
			}
		}
		hi := lo + internBatch
		if hi > n {
			hi = n
		}
		for j, col := range cols {
			for i := lo; i < hi; i++ {
				col[i] = d.Intern(r.tuples[i][j])
			}
		}
	}
	return cols, nil
}

// InternedColumns returns the relation's tuples as one []uint32 per
// column (row i of column j is the dictionary ID of tuple i's j-th
// value), interning values not yet in d. check, when non-nil, is consulted
// once per batch of the build and aborts it with its error. The result is
// cached until the relation mutates; the returned slices must not be
// modified.
func (r *Relation) InternedColumns(d *Dict, check func() error) ([][]uint32, error) {
	return r.ids.columns(r, d, check)
}

// SeedInternedColumns installs cols as the relation's ID image for d — for
// a producer that already holds the rows in ID form (the executor's
// materialize barrier). cols must be column-major with one ID per stored
// tuple; a mismatched shape is ignored.
func (r *Relation) SeedInternedColumns(d *Dict, cols [][]uint32) {
	if len(cols) != len(r.cols) {
		return
	}
	for _, c := range cols {
		if len(c) != len(r.tuples) {
			return
		}
	}
	r.ids.seed(d, len(r.tuples), cols)
}

// IDSet returns (building and caching on first use) the membership set
// of the relation's tuples in ID space — the columnar twin of
// ContainsKey: a tuple is a member when Find returns an entry. Safe for
// concurrent readers once built.
func (r *Relation) IDSet(d *Dict, check func() error) (*IDTable, error) {
	return r.ids.idSet(r, d, check)
}

// IDIndex returns (building and caching on first use) a hash index from
// the IDs of the given column positions to the matching row numbers, in
// insertion order — the columnar twin of Index. Safe for concurrent
// readers once built.
func (r *Relation) IDIndex(d *Dict, cols []int, check func() error) (*IDIndex, error) {
	return r.ids.idIndex(r, d, cols, check)
}
