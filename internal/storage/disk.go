package storage

import (
	"fmt"
	"sort"
	"sync"
)

// DiskRelation is the on-disk RelationSource: a base column file plus an
// in-memory view of the append-only delta layer. The executor reads the
// relation through its ID-space caches; the first use reads the column
// file once, verifies its CRCs and takes its IDs as they are (they are
// already IDs of the persisted DICT), interns the delta rows on top, and
// keeps the result resident (4 bytes per cell plus the ID indexes and set
// asked for — never boxed base tuples). Like *Relation, a DiskRelation is
// immutable once published — WithDelta returns a new view instead of
// mutating, so the serving layer's copy-on-write snapshot discipline
// carries over unchanged.
type DiskRelation struct {
	path string // the column file
	name string
	cols []string
	rows int   // base rows, from the catalog
	dict *Dict // the persisted DICT the column file's IDs index
	io   *IOStats

	// delta holds the rows appended after the column file was written, in
	// append order; deltaSeen is their equality-key membership set.
	delta     []Tuple
	deltaSeen map[string]struct{}

	// hist is the persisted per-column group-size multiset (base rows
	// only), valid while the delta is empty.
	hist map[string][]int

	ids idCache // lazy ID-space caches and statistics (see interned.go)

	pinOnce sync.Once
	pinned  *Relation
	pinErr  error
}

// Name returns the relation name.
func (d *DiskRelation) Name() string { return d.name }

// Columns returns the column names.
func (d *DiskRelation) Columns() []string { return d.cols }

// Arity returns the column count.
func (d *DiskRelation) Arity() int { return len(d.cols) }

// Len returns the total row count (base rows plus delta).
func (d *DiskRelation) Len() int { return d.rows + len(d.delta) }

// ColumnIndex returns the position of the named column, or -1.
func (d *DiskRelation) ColumnIndex(col string) int {
	for i, c := range d.cols {
		if c == col {
			return i
		}
	}
	return -1
}

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
// re-interned), then the delta rows interned on top.
func (d *DiskRelation) homeColumns(check func() error) ([][]uint32, *IDTable, error) {
	cols, err := loadColumnFile(d.path, d.name, d.rows, len(d.cols), d.dict.Len(), check, d.io)
	if err != nil {
		return nil, nil, err
	}
	for j := range cols {
		for _, t := range d.delta {
			cols[j] = append(cols[j], d.dict.Intern(t[j]))
		}
	}
	d.io.addDeltaRows(len(d.delta))
	return cols, nil, nil
}

// InternedColumns implements RelationSource: the home columns (see
// homeColumns) under the persisted DICT, a cached per-class remap of them
// under another dictionary (a shard's).
func (d *DiskRelation) InternedColumns(dict *Dict, check func() error) ([][]uint32, error) {
	return d.ids.columns(d, dict, check)
}

// IDSet implements RelationSource over the cached ID columns.
func (d *DiskRelation) IDSet(dict *Dict, check func() error) (*IDTable, error) {
	return d.ids.idSet(d, dict, check)
}

// IDIndex implements RelationSource over the cached ID columns; buckets
// keep scan order, matching the memory engine's insertion-order buckets.
func (d *DiskRelation) IDIndex(dict *Dict, cols []int, check func() error) (*IDIndex, error) {
	return d.ids.idIndex(d, dict, cols, check)
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
	if sizes, ok := d.hist[col]; ok && len(d.delta) == 0 {
		return sizes, nil
	}
	return d.ids.groupSizes(d, col)
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

// WithDelta returns a new view with the given tuples appended to the
// delta layer (duplicates of existing rows are dropped, preserving set
// semantics) plus the list of rows actually added, in append order. The
// duplicate probe binary-searches the ID-sorted base columns (a value the
// dictionary lacks cannot be in the base) and consults deltaSeen for the
// delta rows. The new view extends this view's ID columns with the added
// rows' IDs (values the dictionary has not seen are appended to it)
// instead of reading the column file again; its ID indexes and set
// rebuild from those columns on demand.
func (d *DiskRelation) WithDelta(tuples []Tuple) (*DiskRelation, []Tuple, error) {
	cols, err := d.InternedColumns(d.dict, nil)
	if err != nil {
		return nil, nil, err
	}
	out := &DiskRelation{
		path:      d.path,
		name:      d.name,
		cols:      d.cols,
		rows:      d.rows,
		dict:      d.dict,
		io:        d.io,
		deltaSeen: make(map[string]struct{}, len(d.deltaSeen)+len(tuples)),
		hist:      d.hist,
	}
	for k := range d.deltaSeen {
		out.deltaSeen[k] = struct{}{}
	}
	var added []Tuple
	ids := make([]uint32, len(d.cols))
	for _, t := range tuples {
		if len(t) != len(d.cols) {
			return nil, nil, fmt.Errorf("storage: arity mismatch appending %d-tuple to %q(%d cols)",
				len(t), d.name, len(d.cols))
		}
		key := string(t.AppendKey(nil))
		if _, dup := out.deltaSeen[key]; dup || d.inBase(cols, t, ids) {
			continue
		}
		out.deltaSeen[key] = struct{}{}
		added = append(added, t)
	}
	// Copy-on-append, for the delta and the ID columns alike: the shared
	// prefix must not be mutated under views still serving the previous
	// snapshot.
	out.delta = append(d.delta[:len(d.delta):len(d.delta)], added...)
	next := make([][]uint32, len(cols))
	for j, col := range cols {
		next[j] = col[:len(col):len(col)]
		for _, t := range added {
			next[j] = append(next[j], d.dict.Intern(t[j]))
		}
	}
	out.ids.home = &internedState{dict: d.dict, n: out.Len(), cols: next, idx: make(map[string]*IDIndex)}
	d.io.addDeltaRows(len(added))
	return out, added, nil
}

// inBase reports whether the base rows (the first d.rows of cols, in
// ID-tuple order) hold t; ids is a buffer of the relation's arity.
func (d *DiskRelation) inBase(cols [][]uint32, t Tuple, ids []uint32) bool {
	for j, v := range t {
		id, ok := d.dict.Lookup(v)
		if !ok {
			return false
		}
		ids[j] = id
	}
	i := sort.Search(d.rows, func(i int) bool { return cmpIDRow(cols, i, ids) >= 0 })
	return i < d.rows && cmpIDRow(cols, i, ids) == 0
}
