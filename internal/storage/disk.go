package storage

import (
	"fmt"
	"sort"
	"sync"
)

// DiskRelation is the on-disk RelationSource: a sorted base segment plus
// an in-memory view of the append-only delta layer. Scans stream the base
// from disk and append the delta rows; the executor reads the relation
// through its ID-space caches, which one streaming pass over the segment
// builds on first use and which then stay resident (ID columns at 4 bytes
// per cell plus the ID indexes and set asked for — never boxed base
// tuples). Like *Relation, a DiskRelation is immutable once published —
// WithDelta returns a new view instead of mutating, so the serving
// layer's copy-on-write snapshot discipline carries over unchanged.
type DiskRelation struct {
	seg  *segmentReader
	name string
	cols []string
	io   *IOStats

	// delta holds the rows appended after the segment was written, in
	// append order; deltaSeen is their equality-key membership set.
	delta     []Tuple
	deltaSeen map[string]struct{}

	// hist is the persisted per-column group-size multiset (base rows
	// only), valid while the delta is empty.
	hist map[string][]int

	mu     sync.Mutex
	groups map[string][]int // col -> exact group sizes incl. delta
	ids    idCache          // lazy ID-space caches (see interned.go)

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

// Len returns the total row count (base segment plus delta).
func (d *DiskRelation) Len() int { return d.seg.rows + len(d.delta) }

// ColumnIndex returns the position of the named column, or -1.
func (d *DiskRelation) ColumnIndex(col string) int {
	for i, c := range d.cols {
		if c == col {
			return i
		}
	}
	return -1
}

// SegmentError reports that a relation's base segment could not be read
// back in full: a read or decode failure, or fewer rows than its header
// declares (a file truncated on a row boundary ends cleanly).
type SegmentError struct {
	Relation string
	Err      error
}

func (e *SegmentError) Error() string {
	return fmt.Sprintf("storage: relation %q: %v", e.Relation, e.Err)
}

func (e *SegmentError) Unwrap() error { return e.Err }

// concatIterator streams its inputs in order, counting the rows of the
// delta tail for the I/O counters.
type concatIterator struct {
	base, delta Iterator
	io          *IOStats
	baseDone    bool
}

func (c *concatIterator) Next(max int) ([]Tuple, error) {
	if !c.baseDone {
		batch, err := c.base.Next(max)
		if err != nil || batch != nil {
			return batch, err
		}
		c.baseDone = true
	}
	batch, err := c.delta.Next(max)
	c.io.addDeltaRows(len(batch))
	return batch, err
}

func (c *concatIterator) Close() error {
	err := c.base.Close()
	if cerr := c.delta.Close(); err == nil {
		err = cerr
	}
	return err
}

// Scan streams base rows in segment (sort) order, then delta rows in
// append order — the same total order the memory engine materializes from
// this data directory.
func (d *DiskRelation) Scan() Iterator {
	if len(d.delta) == 0 {
		return d.seg.scan()
	}
	return &concatIterator{base: d.seg.scan(), delta: NewSliceIterator(d.delta), io: d.io}
}

// scanBase streams the base segment through fn, consulting check (when
// non-nil) before each batch. Failures come back as a *SegmentError.
func (d *DiskRelation) scanBase(check func() error, fn func(Tuple)) error {
	it := d.seg.scan()
	defer it.Close()
	rows := 0
	for {
		if check != nil {
			if err := check(); err != nil {
				return err
			}
		}
		batch, err := it.Next(internBatch)
		if err != nil {
			return &SegmentError{Relation: d.name, Err: err}
		}
		if batch == nil {
			break
		}
		rows += len(batch)
		for _, t := range batch {
			fn(t)
		}
	}
	if rows != d.seg.rows {
		return &SegmentError{Relation: d.name,
			Err: fmt.Errorf("segment %s holds %d of the %d rows its header declares", d.seg.path, rows, d.seg.rows)}
	}
	return nil
}

// forEach streams every row (base, then delta) through fn.
func (d *DiskRelation) forEach(fn func(Tuple)) error {
	if err := d.scanBase(nil, fn); err != nil {
		return err
	}
	for _, t := range d.delta {
		fn(t)
	}
	d.io.addDeltaRows(len(d.delta))
	return nil
}

// internColumns is the disk column build: one streaming pass over the
// segment, each value interned through dict (a hit for everything the
// persisted DICT holds), then the delta rows on top.
func (d *DiskRelation) internColumns(dict *Dict, check func() error) ([][]uint32, error) {
	cols := make([][]uint32, len(d.cols))
	for j := range cols {
		cols[j] = make([]uint32, 0, d.Len())
	}
	intern := func(t Tuple) {
		for j, v := range t {
			cols[j] = append(cols[j], dict.Intern(v))
		}
	}
	if err := d.scanBase(check, intern); err != nil {
		return nil, err
	}
	for _, t := range d.delta {
		intern(t)
	}
	d.io.addDeltaRows(len(d.delta))
	return cols, nil
}

// InternedColumns implements RelationSource; see internColumns.
func (d *DiskRelation) InternedColumns(dict *Dict, check func() error) ([][]uint32, error) {
	return d.ids.columns(d, dict, check)
}

// IDSet implements RelationSource over the cached ID columns.
func (d *DiskRelation) IDSet(dict *Dict, check func() error) (*IDSet, error) {
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
// sorted ascending. With an empty delta it is served from the persisted
// catalog histogram (stored sorted); otherwise it is counted once per
// view — over the cached ID columns when they are built, else with one
// streaming scan. Exactness and order are a contract: the planner's
// decisions must be engine-independent, and a map-ordered multiset would
// leak nondeterminism into anything that indexes it.
func (d *DiskRelation) GroupSizes(col string) ([]int, error) {
	p := d.ColumnIndex(col)
	if p < 0 {
		return nil, fmt.Errorf("storage: relation %q has no column %q", d.name, col)
	}
	if len(d.delta) == 0 {
		if sizes, ok := d.hist[col]; ok {
			return sizes, nil
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if sizes, ok := d.groups[col]; ok {
		return sizes, nil
	}
	var sizes []int
	if st := d.ids.cached(); st != nil {
		counts := make(map[uint32]int)
		for _, id := range st.cols[p] {
			counts[id]++
		}
		sizes = sortedCounts(counts)
	} else {
		counts := make(map[string]int)
		var buf []byte
		if err := d.forEach(func(t Tuple) {
			buf = t[p].AppendKey(buf[:0])
			counts[string(buf)]++
		}); err != nil {
			return nil, err
		}
		sizes = sortedCounts(counts)
	}
	if d.groups == nil {
		d.groups = make(map[string][]int)
	}
	d.groups[col] = sizes
	return sizes, nil
}

// sortedCounts returns the counts of a value->occurrences map, ascending.
func sortedCounts[K comparable](counts map[K]int) []int {
	sizes := make([]int, 0, len(counts))
	for _, n := range counts {
		sizes = append(sizes, n)
	}
	sort.Ints(sizes)
	return sizes
}

// Pin materializes the source into an in-memory Relation (cached), for
// the consumers that need boxed tuples — the materializing oracle, the
// planner's sampling pass; the streaming executor never does.
func (d *DiskRelation) Pin() (*Relation, error) {
	d.pinOnce.Do(func() {
		rel := NewRelation(d.name, d.cols...)
		d.pinErr = d.forEach(func(t Tuple) { rel.Insert(t) })
		if d.pinErr == nil {
			d.pinned = rel
		}
	})
	return d.pinned, d.pinErr
}

// contains reports whether the source already holds the tuple.
func (d *DiskRelation) contains(t Tuple) (bool, error) {
	var arr [64]byte
	eq := t.AppendKey(arr[:0])
	if _, ok := d.deltaSeen[string(eq)]; ok {
		return true, nil
	}
	return d.seg.contains(t.AppendSortKey(arr[:0]))
}

// WithDelta returns a new view with the given tuples appended to the
// delta layer (duplicates of existing rows are dropped, preserving set
// semantics) plus the list of rows actually added, in append order. The
// base segment and its reader are shared. So are built ID columns: the
// new view extends them with the added rows' IDs (values the dictionary
// has not seen are appended to it) instead of streaming the segment
// again; its ID indexes and set rebuild from those columns on demand.
func (d *DiskRelation) WithDelta(tuples []Tuple) (*DiskRelation, []Tuple, error) {
	out := &DiskRelation{
		seg:       d.seg,
		name:      d.name,
		cols:      d.cols,
		io:        d.io,
		delta:     d.delta,
		deltaSeen: make(map[string]struct{}, len(d.deltaSeen)+len(tuples)),
		hist:      d.hist,
	}
	for k := range d.deltaSeen {
		out.deltaSeen[k] = struct{}{}
	}
	var added []Tuple
	for _, t := range tuples {
		if len(t) != len(d.cols) {
			return nil, nil, fmt.Errorf("storage: arity mismatch appending %d-tuple to %q(%d cols)",
				len(t), d.name, len(d.cols))
		}
		dup, err := out.contains(t)
		if err != nil {
			return nil, nil, err
		}
		if dup {
			continue
		}
		out.deltaSeen[string(t.AppendKey(nil))] = struct{}{}
		added = append(added, t)
	}
	// Copy-on-append, for the delta and the ID columns alike: the shared
	// prefix must not be mutated under views still serving the previous
	// snapshot.
	out.delta = append(d.delta[:len(d.delta):len(d.delta)], added...)
	if st := d.ids.cached(); st != nil {
		cols := make([][]uint32, len(st.cols))
		for j, col := range st.cols {
			cols[j] = col[:len(col):len(col)]
			for _, t := range added {
				cols[j] = append(cols[j], st.dict.Intern(t[j]))
			}
		}
		out.ids.seed(st.dict, out.Len(), cols)
		d.io.addDeltaRows(len(added))
	}
	return out, added, nil
}
