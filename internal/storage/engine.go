package storage

import "fmt"

// Engine selects a storage backend for a data directory (see OpenDir).
type Engine int

const (
	// EngineMemory holds every relation as an in-memory *Relation, its
	// ID columns read from the column files at open — the default, and
	// the only engine for plain CSV loading.
	EngineMemory Engine = iota
	// EngineDisk serves relations from their column files: a relation's
	// file is read and verified at first touch, and what stays resident
	// is the delta layer plus the ID-space caches (4 bytes per cell, no
	// boxed tuples).
	EngineDisk
)

// String returns the engine's flag spelling.
func (e Engine) String() string {
	switch e {
	case EngineMemory:
		return "memory"
	case EngineDisk:
		return "disk"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine converts a flag value into an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "memory":
		return EngineMemory, nil
	case "disk":
		return EngineDisk, nil
	default:
		return 0, fmt.Errorf("storage: unknown engine %q (have memory, disk)", s)
	}
}

// Iterator is a pull cursor over tuples. Next returns up to max tuples and
// nil at end of stream; the returned batch is only valid until the next
// call (sources decode into a reused batch slice). Close releases any
// underlying resources and is required even after an error.
type Iterator interface {
	Next(max int) ([]Tuple, error)
	Close() error
}

// RelationSource is the pluggable access-path interface every storage
// engine provides per relation. The physical executor and the planner
// consume only this interface for base relations; *Relation (memory) and
// *DiskRelation (column file + delta) are the two implementations.
//
// Iteration order is part of the contract: Scan yields a fixed order (the
// relation's insertion order; for disk sources, column-file order followed
// by delta-append order), and row i of the ID columns is the i-th tuple of
// that order. Bit-identical evaluation across engines relies on both
// engines of one data directory agreeing on it.
type RelationSource interface {
	Name() string
	Columns() []string
	Arity() int
	Len() int
	ColumnIndex(col string) int

	// Scan streams every tuple.
	Scan() Iterator

	// The ID-space access paths of the columnar executor: the relation as
	// one dictionary-ID slice per column, a hash index from the IDs of a
	// column subset to row numbers (rows in Scan order), and the
	// full-tuple membership set, an IDTable of the rows (a tuple is a
	// member when Find returns an entry; a nullary relation's set holds
	// the empty tuple when it has a row). Each is built on first use and
	// cached; the results are shared and must not be modified. check, when
	// non-nil, is consulted once per batch of a column build (the only
	// part that may read storage) and its error aborts the build, which
	// then caches nothing.
	InternedColumns(d *Dict, check func() error) ([][]uint32, error)
	IDIndex(d *Dict, cols []int, check func() error) (*IDIndex, error)
	IDSet(d *Dict, check func() error) (*IDTable, error)

	// Statistics, exact by contract: the planner's decisions must not
	// depend on which engine serves the data. GroupSizes is sorted
	// ascending. A disk source may have to read its column file to answer.
	DistinctCount(col string) (int, error)
	GroupSizes(col string) ([]int, error)

	// WithDelta is the one write of both engines, copy-on-write: it
	// returns a new source holding the tuples that are new — their values
	// interned once into the source's dictionary, set semantics dropping
	// the rest — and the rows it added, as ID rows of that dictionary in
	// append order (what Dir.AppendDelta persists). The source itself is
	// untouched.
	WithDelta(tuples []Tuple) (RelationSource, [][]uint32, error)

	// Pin returns the source as an in-memory *Relation (itself, for one
	// that already is; a disk source's ID columns under its dictionary,
	// cached) for the consumers that read decoded tuples: the
	// materializing oracle and the planner's sampling pass.
	Pin() (*Relation, error)
}

// ForEach drains the iterator, calling fn for every tuple, and closes it.
// The tuple is only valid for the duration of the call (see Iterator).
func ForEach(it Iterator, fn func(Tuple) error) error {
	defer it.Close()
	for {
		batch, err := it.Next(0)
		if err != nil {
			return err
		}
		if batch == nil {
			return nil
		}
		for _, t := range batch {
			if err := fn(t); err != nil {
				return err
			}
		}
	}
}

// --- *Relation as a RelationSource ---

// Scan streams the relation's tuples in insertion order, decoded batch by
// batch.
func (r *Relation) Scan() Iterator {
	return &columnIterator{cols: r.ids, view: r.dict.View(), n: r.Len(), base: r.Len()}
}

// Pin returns the relation itself; it is already in memory.
func (r *Relation) Pin() (*Relation, error) { return r, nil }
