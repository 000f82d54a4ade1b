package storage

import (
	"sync"
	"sync/atomic"
)

// This file holds the relation-side caches of the columnar interned
// executor: the column-major ID image of a relation, an ID-keyed
// membership set (the columnar ContainsKey), and ID-keyed hash indexes
// (the columnar Index). All three are lazy, cached per relation under
// the same mutex as the byte-keyed indexes, and dropped together on any
// mutation. Keys are the dictionary IDs of internal/storage.Dict, so key
// equality is exactly Value.Equal — the same classes the byte AppendKey
// encoding produces.

// internedState is the ID-space image of one relation for one dictionary:
// the column-major IDs plus the membership set and hash indexes derived
// from them. Immutable once published except for the lazily added set and
// indexes, which idCache guards.
type internedState struct {
	dict *Dict
	n    int                 // row count (explicit: a relation may have zero columns)
	cols [][]uint32          // column-major IDs
	set  *IDSet              // full-tuple membership; nil until built
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

func (c *idCache) idSet(src columnBuilder, d *Dict, check func() error) (*IDSet, error) {
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
// ContainsKey. Safe for concurrent readers once built.
func (r *Relation) IDSet(d *Dict, check func() error) (*IDSet, error) {
	return r.ids.idSet(r, d, check)
}

// IDIndex returns (building and caching on first use) a hash index from
// the IDs of the given column positions to the matching row numbers, in
// insertion order — the columnar twin of Index. Safe for concurrent
// readers once built.
func (r *Relation) IDIndex(d *Dict, cols []int, check func() error) (*IDIndex, error) {
	return r.ids.idIndex(r, d, cols, check)
}

// packIDs appends the little-endian 4-byte encoding of each ID to dst —
// the generic map key of the >2-column ID paths.
func packIDs(dst []byte, ids []uint32) []byte {
	for _, id := range ids {
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dst
}

// IDSet is a membership set over ID tuples. One and two column sets key
// on the IDs directly (no bytes, no hashing beyond the map's); wider
// tuples key on the packed 4-byte-per-ID encoding.
type IDSet struct {
	arity int
	m1    map[uint32]struct{}
	m2    map[uint64]struct{}
	mn    map[string]struct{}
}

func newIDSet(cols [][]uint32, n int) *IDSet {
	s := &IDSet{arity: len(cols)}
	switch len(cols) {
	case 1:
		s.m1 = make(map[uint32]struct{}, n)
		for _, id := range cols[0] {
			s.m1[id] = struct{}{}
		}
	case 2:
		s.m2 = make(map[uint64]struct{}, n)
		for i := 0; i < n; i++ {
			s.m2[key2(cols[0][i], cols[1][i])] = struct{}{}
		}
	default:
		s.mn = make(map[string]struct{}, n)
		buf := make([]byte, 0, 4*len(cols))
		row := make([]uint32, len(cols))
		for i := 0; i < n; i++ {
			for j := range cols {
				row[j] = cols[j][i]
			}
			buf = packIDs(buf[:0], row)
			if _, ok := s.mn[string(buf)]; !ok {
				s.mn[string(buf)] = struct{}{}
			}
		}
	}
	return s
}

// key2 packs two IDs into one uint64 map key.
func key2(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// Contains reports membership of the ID tuple (len(ids) must equal the
// set's arity). Allocation-free for any arity up to 16 columns.
func (s *IDSet) Contains(ids []uint32) bool {
	switch s.arity {
	case 1:
		_, ok := s.m1[ids[0]]
		return ok
	case 2:
		_, ok := s.m2[key2(ids[0], ids[1])]
		return ok
	default:
		var arr [64]byte
		key := packIDs(arr[:0], ids)
		_, ok := s.mn[string(key)]
		return ok
	}
}

// IDIndex maps the IDs of a column subset to the row numbers holding
// them, rows in insertion order — lookups therefore enumerate matches
// exactly like the byte-keyed Index's buckets.
type IDIndex struct {
	nkeys int
	m1    map[uint32][]int32
	m2    map[uint64][]int32
	mn    map[string][]int32
}

func buildIDIndex(idCols [][]uint32, cols []int, n int) *IDIndex {
	ix := &IDIndex{nkeys: len(cols)}
	switch len(cols) {
	case 1:
		ix.m1 = make(map[uint32][]int32, n)
		c := idCols[cols[0]]
		for i := 0; i < n; i++ {
			ix.m1[c[i]] = append(ix.m1[c[i]], int32(i))
		}
	case 2:
		ix.m2 = make(map[uint64][]int32, n)
		a, b := idCols[cols[0]], idCols[cols[1]]
		for i := 0; i < n; i++ {
			k := key2(a[i], b[i])
			ix.m2[k] = append(ix.m2[k], int32(i))
		}
	default:
		ix.mn = make(map[string][]int32, n)
		buf := make([]byte, 0, 4*len(cols))
		row := make([]uint32, len(cols))
		for i := 0; i < n; i++ {
			for j, c := range cols {
				row[j] = idCols[c][i]
			}
			buf = packIDs(buf[:0], row)
			ix.mn[string(buf)] = append(ix.mn[string(buf)], int32(i))
		}
	}
	return ix
}

// Lookup returns the row numbers whose indexed columns equal the given
// key IDs (in index-column order). The returned slice must not be
// mutated. Allocation-free for keys up to 16 columns.
func (ix *IDIndex) Lookup(ids []uint32) []int32 {
	switch ix.nkeys {
	case 1:
		return ix.m1[ids[0]]
	case 2:
		return ix.m2[key2(ids[0], ids[1])]
	default:
		var arr [64]byte
		key := packIDs(arr[:0], ids)
		return ix.mn[string(key)]
	}
}

// GroupCount returns the number of distinct keys in the index.
func (ix *IDIndex) GroupCount() int {
	switch ix.nkeys {
	case 1:
		return len(ix.m1)
	case 2:
		return len(ix.m2)
	default:
		return len(ix.mn)
	}
}
