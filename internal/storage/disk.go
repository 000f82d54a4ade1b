package storage

import (
	"fmt"
	"sort"
	"sync"
)

// DiskRelation is the on-disk RelationSource: a base column file plus an
// in-memory delta layer. The executor reads the relation through its
// ID-space caches; the first use reads the column file once, verifies its
// CRCs and takes its IDs as they are (they are already IDs of the
// persisted DICT), appends the delta's ID rows, and keeps the result
// resident (4 bytes per cell plus the ID indexes and set asked for —
// never boxed tuples). Like *Relation, a DiskRelation is immutable once
// published — WithDelta returns a new view instead of mutating, so the
// serving layer's copy-on-write snapshot discipline carries over
// unchanged.
type DiskRelation struct {
	schema
	path string // the column file
	rows int    // base rows, from the catalog
	dict *Dict  // the persisted DICT the column file's IDs index
	io   *IOStats

	// delta holds the rows appended after the column file was written, in
	// append order, as ID rows of dict; none of them is a base row.
	delta *Relation

	// hist is the persisted per-column group-size multiset (base rows
	// only), valid while the delta is empty.
	hist map[string][]int

	idCache // lazy ID-space caches and statistics (see interned.go)

	pinOnce sync.Once
	pinned  *Relation
	pinErr  error
}

// Len returns the total row count (base rows plus delta).
func (d *DiskRelation) Len() int { return d.rows + d.delta.Len() }

// SegmentError reports that a relation's base column file could not be
// read back in full: a read failure, a short file, or a CRC, ID-range or
// row-order check that failed.
type SegmentError struct {
	Relation string
	Err      error
}

func (e *SegmentError) Error() string {
	return fmt.Sprintf("storage: relation %q: %v", e.Relation, e.Err)
}

func (e *SegmentError) Unwrap() error { return e.Err }

// columnIterator streams the rows of ID columns decoded batch by batch,
// each value its dictionary class's representative. Rows at or past base
// are a disk source's delta rows, counted for the I/O counters.
type columnIterator struct {
	cols    [][]uint32
	view    DictView
	n, base int
	io      *IOStats
	pos     int
	out     []Tuple
	err     error
}

func (it *columnIterator) Next(limit int) ([]Tuple, error) {
	if it.err != nil || it.pos >= it.n {
		return nil, it.err
	}
	if limit <= 0 {
		limit = internBatch
	}
	hi := min(it.pos+limit, it.n)
	if hi > it.base {
		it.io.addDeltaRows(hi - max(it.pos, it.base))
	}
	it.out = it.out[:0]
	for ; it.pos < hi; it.pos++ {
		t := make(Tuple, len(it.cols))
		for j, c := range it.cols {
			t[j] = it.view.Value(c[it.pos])
		}
		it.out = append(it.out, t)
	}
	return it.out, nil
}

func (it *columnIterator) Close() error { return nil }

// Scan streams base rows in column-file (ID-tuple) order, then delta rows
// in append order, each value its dictionary class's representative — the
// same total order and values the memory engine holds for this data
// directory. A column file that fails to load surfaces from Next.
func (d *DiskRelation) Scan() Iterator {
	cols, err := d.InternedColumns(d.dict, nil)
	return &columnIterator{cols: cols, view: d.dict.View(), n: d.Len(), base: d.rows, io: d.io, err: err}
}

// home is the persisted DICT the column file's IDs index.
func (d *DiskRelation) home() *Dict { return d.dict }

// homeColumns is the disk column build: the column file read and verified
// (its IDs are the persisted DICT's, so nothing is decoded or
// re-interned), then the delta's ID rows appended.
func (d *DiskRelation) homeColumns(check func() error) ([][]uint32, *IDTable, error) {
	cols, err := loadColumnFile(d.path, d.name, d.rows, len(d.cols), d.dict.Len(), check, d.io)
	if err != nil {
		return nil, nil, err
	}
	for j := range cols {
		cols[j] = append(cols[j], d.delta.ids[j]...)
	}
	d.io.addDeltaRows(d.delta.Len())
	return cols, nil, nil
}

// DistinctCount returns the exact number of distinct value classes in the
// named column.
func (d *DiskRelation) DistinctCount(col string) (int, error) {
	sizes, err := d.GroupSizes(col)
	return len(sizes), err
}

// GroupSizes returns the exact group-size multiset of the named column,
// sorted ascending (see RelationSource): from the persisted catalog
// histogram while the delta is empty, else counted as the memory engine
// counts.
func (d *DiskRelation) GroupSizes(col string) ([]int, error) {
	if sizes, ok := d.hist[col]; ok && d.delta.Len() == 0 {
		return sizes, nil
	}
	return d.groupSizes(col)
}

// Pin returns the source as an in-memory Relation (cached) over its ID
// columns under the persisted DICT, for the consumers that read decoded
// tuples — the naive oracle, the planner's sampling pass; the executor
// never does.
func (d *DiskRelation) Pin() (*Relation, error) {
	d.pinOnce.Do(func() {
		cols, err := d.InternedColumns(d.dict, nil)
		if err != nil {
			d.pinErr = err
			return
		}
		d.pinned = newRelationFromColumns(d.dict, d.name, d.cols, cols, d.Len())
	})
	return d.pinned, d.pinErr
}

// WithDelta implements RelationSource: a new view with the tuples'
// values interned into the persisted DICT's dictionary and the rows that
// are new appended to its delta layer. The duplicate probe binary-searches
// the ID-sorted base columns on the interned IDs; the delta relation's own
// set drops repeats of delta rows. The new view extends this view's ID
// columns with the added rows instead of reading the column file again;
// its ID indexes and set rebuild from those columns on demand.
func (d *DiskRelation) WithDelta(tuples []Tuple) (RelationSource, [][]uint32, error) {
	cols, err := d.InternedColumns(d.dict, nil)
	if err != nil {
		return nil, nil, err
	}
	delta, added, err := d.delta.withRows(tuples, func(ids []uint32) bool { return d.inBase(cols, ids) })
	if err != nil {
		return nil, nil, err
	}
	out := &DiskRelation{
		schema: d.schema,
		path:   d.path,
		rows:   d.rows,
		dict:   d.dict,
		io:     d.io,
		delta:  delta,
		hist:   d.hist,
	}
	// Copy-on-append: the shared prefix must not be mutated under views
	// still serving the previous snapshot.
	next := make([][]uint32, len(cols))
	for j, col := range cols {
		next[j] = append(col[:len(col):len(col)], delta.ids[j][d.delta.Len():]...)
	}
	out.src = out
	out.homeImg = &internedState{dict: d.dict, n: out.Len(), cols: next, idx: make(map[string]*IDIndex)}
	d.io.addDeltaRows(len(added))
	return out, added, nil
}

// inBase reports whether the base rows (the first d.rows of cols, in
// ID-tuple order) hold the ID row ids.
func (d *DiskRelation) inBase(cols [][]uint32, ids []uint32) bool {
	i := sort.Search(d.rows, func(i int) bool { return cmpIDRow(cols, i, ids) >= 0 })
	return i < d.rows && cmpIDRow(cols, i, ids) == 0
}
