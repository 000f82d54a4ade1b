package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Relation is a named, set-semantics collection of tuples over a fixed list
// of columns (§2.3), held as dictionary-ID rows: one []uint32 per column,
// in insertion order, against one Dict that the relation never changes,
// deduplicated by one IDTable of the rows, which is also its IDSet. Tuples
// are duplicates when their values are Equal (one dictionary class), so
// Insert(Float(1)) after Insert(Int(1)) adds nothing, and a stored value
// reads back as its class's representative (Dict.Value). Boxed Values
// exist only at the edges: Insert and Contains intern or look up at the
// call; Tuples, Sorted, Scan and Index decode at the call.
//
// Thread-safety contract: a Relation is single-writer. The Insert methods
// mutate without locking, so no mutation may run concurrently with any
// other access. Once mutation stops, any number of goroutines may read
// concurrently; the lazy indexes and ID images build under an internal
// lock. Relations sharing a Dict may intern into it concurrently.
type Relation struct {
	schema
	dict *Dict
	ids  [][]uint32 // column-major dictionary IDs, insertion order
	set  *IDTable   // the rows: dedup and membership

	mu      sync.Mutex        // guards indexes
	indexes map[string]*Index // boxed indexes; nil after a mutation
	idCache                   // ID images, indexes and statistics
}

// NewRelation creates an empty relation with the given name and columns,
// interning into a dictionary of its own. Column names must be non-empty
// and unique.
func NewRelation(name string, cols ...string) *Relation {
	return NewRelationIn(NewDict(), name, cols...)
}

// NewRelationIn is NewRelation interning into d — for rows that are
// already IDs of d (InsertIDs), or values bound for d's database.
func NewRelationIn(d *Dict, name string, cols ...string) *Relation {
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
	ids := make([][]uint32, len(cols))
	r := &Relation{schema: schema{name, append([]string(nil), cols...)}, dict: d, ids: ids, set: newIDSet(ids, 0)}
	r.src = r
	return r
}

// newRelationFromColumns builds a relation in d over the n distinct rows
// of the column-major ids, which it keeps (capped, so a later insert
// copies instead of writing into a shared array).
func newRelationFromColumns(d *Dict, name string, cols []string, ids [][]uint32, n int) *Relation {
	r := NewRelationIn(d, name, cols...)
	for j, col := range ids {
		r.ids[j] = col[:n:n]
	}
	r.set = newIDSet(r.ids, n)
	return r
}

// schema is a relation's name and column names, the part of the
// RelationSource contract both engines implement alike.
type schema struct {
	name string
	cols []string
}

// Name returns the relation's name.
func (s *schema) Name() string { return s.name }

// Columns returns the column names. The returned slice must not be mutated.
func (s *schema) Columns() []string { return s.cols }

// Arity returns the number of columns.
func (s *schema) Arity() int { return len(s.cols) }

// ColumnIndex returns the position of the named column, or -1.
func (s *schema) ColumnIndex(col string) int {
	for i, c := range s.cols {
		if c == col {
			return i
		}
	}
	return -1
}

// Dict returns the dictionary the relation's IDs index.
func (r *Relation) Dict() *Dict { return r.dict }

// Len returns the number of (distinct) tuples.
func (r *Relation) Len() int { return r.set.Len() }

// Insert adds a tuple if no Equal one is present and reports whether it
// was added. The values are interned; the tuple itself is not kept.
func (r *Relation) Insert(t Tuple) bool {
	key := r.set.key[:0]
	for _, v := range t {
		key = append(key, r.dict.Intern(v))
	}
	return r.InsertIDs(key)
}

// InsertValues is Insert with variadic values, for convenience in tests and
// generators.
func (r *Relation) InsertValues(vs ...Value) bool { return r.Insert(Tuple(vs)) }

// InsertIDs adds a row of IDs of the relation's dictionary unless it is
// present, and reports whether it was added. The row is copied.
func (r *Relation) InsertIDs(row []uint32) bool {
	if len(row) != len(r.cols) {
		panic(fmt.Sprintf("storage: arity mismatch inserting %d-tuple into %q(%d cols)", len(row), r.name, len(r.cols)))
	}
	// The set reads its rows from r.ids: it numbers the row first, and the
	// row joins the columns after.
	if _, fresh := r.set.Insert(row); !fresh {
		return false
	}
	for j, id := range row {
		r.ids[j] = append(r.ids[j], id)
	}
	r.indexes = nil
	return true
}

// InsertAll adds every row of s (set union, s's order). Rows move as IDs
// when both relations share a dictionary, and through a per-class remap
// otherwise.
func (r *Relation) InsertAll(s *Relation) {
	ids := s.ids
	if s.dict != r.dict {
		ids, _ = remapColumns(ids, s.Len(), s.dict, r.dict, nil)
	}
	row := make([]uint32, len(ids))
	for i := 0; i < s.Len(); i++ {
		for j, col := range ids {
			row[j] = col[i]
		}
		r.InsertIDs(row)
	}
}

// Contains reports whether the relation holds a tuple Equal to t. It
// never grows the dictionary: a value it lacks cannot be stored.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != len(r.cols) {
		return false
	}
	var arr [8]uint32 // no allocation up to arity 8
	key := arr[:0]
	for _, v := range t {
		id, ok := r.dict.Lookup(v)
		if !ok {
			return false
		}
		key = append(key, id)
	}
	return r.set.Find(key) >= 0
}

// Tuples decodes the stored tuples in insertion order, each value its
// class's representative. Every call decodes afresh: call it once, not
// per use.
func (r *Relation) Tuples() []Tuple { return r.decode(r.ids) }

// decode boxes the rows of ids, column-major IDs of r's dictionary.
func (r *Relation) decode(ids [][]uint32) []Tuple {
	n, w := r.Len(), len(r.cols)
	view := r.dict.View()
	out := make([]Tuple, n)
	cells := make([]Value, n*w)
	for i := range out {
		t := cells[i*w : (i+1)*w : (i+1)*w]
		for j, col := range ids {
			t[j] = view.Value(col[i])
		}
		out[i] = t
	}
	return out
}

// Index returns (building on first use) a hash index of the decoded tuples
// on the given column positions, for the materializing reference executor.
// The index is dropped on the next insert. Safe for concurrent readers.
func (r *Relation) Index(cols []int) *Index {
	key := indexKey(cols)
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix, ok := r.indexes[key]; ok {
		return ix
	}
	if r.indexes == nil {
		r.indexes = make(map[string]*Index)
	}
	ix := buildIndex(r.Tuples(), cols)
	r.indexes[key] = ix
	return ix
}

// DistinctCount returns the number of distinct values in the named column.
func (r *Relation) DistinctCount(col string) (int, error) {
	sizes, err := r.GroupSizes(col)
	return len(sizes), err
}

// GroupSizes returns the group sizes of the named column, sorted
// ascending (a multiset in the one canonical order both engines present).
func (r *Relation) GroupSizes(col string) ([]int, error) { return r.groupSizes(col) }

// Clone returns an independent copy sharing only the dictionary.
func (r *Relation) Clone() *Relation {
	ids := make([][]uint32, len(r.ids))
	for j, col := range r.ids {
		ids[j] = append([]uint32(nil), col...)
	}
	return newRelationFromColumns(r.dict, r.name, r.cols, ids, r.Len())
}

// WithDelta implements RelationSource: a copy of the relation with the
// tuples that are new inserted, their values interned into its
// dictionary, plus the rows it added as ID rows, in order. The relation
// itself is untouched, so views serving it never see the write.
func (r *Relation) WithDelta(tuples []Tuple) (RelationSource, [][]uint32, error) {
	return r.withRows(tuples, nil)
}

// withRows is the copy-on-write insert of both engines' WithDelta: a
// clone of r with each tuple interned into r's dictionary once and
// inserted unless the clone holds it or skip (when non-nil) reports it
// present elsewhere, plus the added ID rows in order.
func (r *Relation) withRows(tuples []Tuple, skip func(ids []uint32) bool) (*Relation, [][]uint32, error) {
	for _, t := range tuples {
		if len(t) != len(r.cols) {
			return nil, nil, fmt.Errorf("storage: arity mismatch appending %d-tuple to %q(%d cols)", len(t), r.name, len(r.cols))
		}
	}
	out := r.Clone()
	var added [][]uint32
	for _, t := range tuples {
		ids := make([]uint32, len(t))
		for j, v := range t {
			ids[j] = r.dict.Intern(v)
		}
		if (skip == nil || !skip(ids)) && out.InsertIDs(ids) {
			added = append(added, ids)
		}
	}
	return out, added, nil
}

// Rename returns a view of the relation with a different name and,
// optionally, different column names (pass nil to keep the originals). It
// shares the rows, so neither relation may be mutated afterwards.
func (r *Relation) Rename(name string, cols []string) *Relation {
	if cols == nil {
		cols = r.cols
	}
	if len(cols) != len(r.cols) {
		panic(fmt.Sprintf("storage: Rename of %q with %d columns (want %d)", r.name, len(cols), len(r.cols)))
	}
	out := NewRelationIn(r.dict, name, cols...)
	out.ids, out.set = r.ids, r.set
	return out
}

// Sorted returns the decoded tuples in lexicographic order (the relation
// itself keeps insertion order). Useful for deterministic output. Rows
// whose IDs all lie in the dictionary's order-exact prefix sort on their
// IDs, which order exactly as their values do.
func (r *Relation) Sorted() []Tuple {
	exact := r.dict.OrderExactLen()
	for _, col := range r.ids {
		if slices.ContainsFunc(col, func(id uint32) bool { return id >= exact }) {
			out := r.Tuples()
			sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
			return out
		}
	}
	cols, _ := sortedIDColumns(r, r.dict) // its own columns: no build, no error
	return r.decode(cols)
}

// Equal reports whether two relations hold exactly the same set of tuples
// (names and column names are ignored; arity must match).
func (r *Relation) Equal(s *Relation) bool {
	if r.Arity() != s.Arity() || r.Len() != s.Len() {
		return false
	}
	for _, t := range r.Tuples() {
		if !s.Contains(t) {
			return false
		}
	}
	return true
}

// String renders a short human-readable summary.
func (r *Relation) String() string {
	return fmt.Sprintf("%s(%s)[%d tuples]", r.name, strings.Join(r.cols, ", "), r.Len())
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

// eachClass calls fn once with the representative of every value class
// the relation holds.
func (r *Relation) eachClass(fn func(Value)) {
	view := r.dict.View()
	seen := make([]bool, view.Len())
	for _, col := range r.ids {
		for _, id := range col {
			if !seen[id] {
				seen[id] = true
				fn(view.Value(id))
			}
		}
	}
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
