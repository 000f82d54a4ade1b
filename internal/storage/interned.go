package storage

import (
	"fmt"
	"sort"
	"sync"
)

// This file holds the ID-space cache both engines embed: a relation's
// image under a dictionary (column-major IDs, membership set, ID indexes;
// idtable.go) and the group sizes counted over it. A source stores the IDs
// of its home dictionary — a Relation's own, a DiskRelation's persisted
// DICT — and its image under any other is the home columns remapped once
// per value class, never per cell.

// internedState is a relation's image under one dictionary; idCache
// guards its lazily added set, indexes and sizes.
type internedState struct {
	dict   *Dict
	n      int                 // row count (explicit: a relation may have zero columns)
	cols   [][]uint32          // column-major IDs
	set    *IDTable            // full-tuple membership; nil until built
	idx    map[string]*IDIndex // indexKey(cols) -> index
	groups map[int][]int       // column -> ascending group sizes
}

// columnSource is what an idCache needs of the relation embedding it: its
// shape, its home dictionary and the home column build (with the set, when
// the source keeps one).
type columnSource interface {
	Name() string
	ColumnIndex(col string) int
	Len() int
	home() *Dict
	homeColumns(check func() error) ([][]uint32, *IDTable, error)
}

// idCache holds a relation's lazily built images, one under its home
// dictionary and one under the latest other, each valid while its
// dictionary and row count match (a Relation only grows). mu guards both.
type idCache struct {
	mu         sync.Mutex
	home, away *internedState
}

// state returns the image under d, building it on first use. A failed (or
// cancelled) build caches nothing. Callers hold c.mu.
func (c *idCache) state(src columnSource, d *Dict, check func() error) (*internedState, error) {
	slot := &c.away
	if d == src.home() {
		slot = &c.home
	}
	if st := *slot; st != nil && st.dict == d && st.n == src.Len() {
		return st, nil
	}
	var cols [][]uint32
	var set *IDTable
	if d == src.home() {
		var err error
		if cols, set, err = src.homeColumns(check); err != nil {
			return nil, err
		}
	} else {
		h, err := c.state(src, src.home(), check)
		if err != nil {
			return nil, err
		}
		if cols, err = remapColumns(h.cols, h.n, h.dict, d, check); err != nil {
			return nil, err
		}
	}
	*slot = &internedState{dict: d, n: src.Len(), cols: cols, set: set, idx: make(map[string]*IDIndex)}
	return *slot, nil
}

func (c *idCache) columns(src columnSource, d *Dict, check func() error) ([][]uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.state(src, d, check)
	if err != nil {
		return nil, err
	}
	return st.cols, nil
}

func (c *idCache) idSet(src columnSource, d *Dict, check func() error) (*IDTable, error) {
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

func (c *idCache) idIndex(src columnSource, d *Dict, cols []int, check func() error) (*IDIndex, error) {
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

// groupSizes returns the ascending group-size multiset of the named
// column, counted once per home image over its IDs into a slice indexed
// by ID — the one statistics path of both engines.
func (c *idCache) groupSizes(src columnSource, col string) ([]int, error) {
	p := src.ColumnIndex(col)
	if p < 0 {
		return nil, fmt.Errorf("storage: relation %q has no column %q", src.Name(), col)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.state(src, src.home(), nil)
	if err != nil {
		return nil, err
	}
	if sizes, ok := st.groups[p]; ok {
		return sizes, nil
	}
	counts := make([]int, st.dict.Len())
	for _, id := range st.cols[p] {
		counts[id]++
	}
	sizes := []int{}
	for _, n := range counts {
		if n > 0 {
			sizes = append(sizes, n)
		}
	}
	sort.Ints(sizes)
	if st.groups == nil {
		st.groups = make(map[int][]int)
	}
	st.groups[p] = sizes
	return sizes, nil
}

// internBatch is the number of rows a column build reads, or a scan
// decodes, between two consultations of its check function.
const internBatch = 1024

// remapColumns returns the n rows of cols, IDs of from, as IDs of to:
// each value class is looked up (and interned into to) once, at its first
// row. check, when non-nil, is consulted once per internBatch rows and
// aborts the remap with its error.
func remapColumns(cols [][]uint32, n int, from, to *Dict, check func() error) ([][]uint32, error) {
	view := from.View()
	m := make([]uint32, view.Len()) // 0: not yet mapped (null maps to null)
	out := make([][]uint32, len(cols))
	for j := range out {
		out[j] = make([]uint32, n)
	}
	for lo := 0; lo < n; lo += internBatch {
		if check != nil {
			if err := check(); err != nil {
				return nil, err
			}
		}
		hi := min(lo+internBatch, n)
		for j, col := range cols {
			for i, id := range col[lo:hi] {
				t := m[id]
				if t == NullID && id != NullID {
					t = to.Intern(view.Value(id))
					m[id] = t
				}
				out[j][lo+i] = t
			}
		}
	}
	return out, nil
}

func (r *Relation) home() *Dict { return r.dict }

// homeColumns is the stored columns as they stand (a copy of their
// headers: later inserts do not lengthen an image handed out).
func (r *Relation) homeColumns(func() error) ([][]uint32, *IDTable, error) {
	return append([][]uint32(nil), r.ids...), r.set, nil
}

// InternedColumns returns the relation's tuples as one []uint32 per
// column (row i of column j is the ID of tuple i's j-th value): the
// stored columns under its own dictionary, a cached per-class remap under
// any other. The returned slices must not be modified.
func (r *Relation) InternedColumns(d *Dict, check func() error) ([][]uint32, error) {
	return r.cache.columns(r, d, check)
}

// IDSet returns the membership set of the relation's tuples in ID space
// (under its own dictionary, the table that deduplicates it): a tuple is
// a member when Find returns an entry. Safe for concurrent readers.
func (r *Relation) IDSet(d *Dict, check func() error) (*IDTable, error) {
	return r.cache.idSet(r, d, check)
}

// IDIndex returns (building and caching on first use) a hash index from
// the IDs of the given column positions to the matching row numbers, in
// insertion order. Safe for concurrent readers once built.
func (r *Relation) IDIndex(d *Dict, cols []int, check func() error) (*IDIndex, error) {
	return r.cache.idIndex(r, d, cols, check)
}
