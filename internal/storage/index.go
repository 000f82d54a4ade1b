package storage

import "sort"

// Index is a hash index mapping the key of a column-subset projection to
// the tuples holding that projection. Indexes are built lazily by
// Relation.Index and discarded when the relation changes. Within a
// bucket, tuples keep relation insertion order.
type Index struct {
	cols    []int
	buckets map[string][]Tuple
}

// buildIndex builds the index of r on cols.
func buildIndex(r *Relation, cols []int) *Index {
	ix := &Index{
		cols:    append([]int(nil), cols...),
		buckets: make(map[string][]Tuple, len(r.tuples)),
	}
	for _, t := range r.tuples {
		k := t.KeyOn(cols)
		ix.buckets[k] = append(ix.buckets[k], t)
	}
	return ix
}

// Columns returns the indexed column positions.
func (ix *Index) Columns() []int { return ix.cols }

// Lookup returns the tuples whose indexed columns equal the given key
// values (in index-column order), plus the (possibly grown) key buffer
// for reuse: like LookupBytes, it allocates nothing once the caller's
// buffer has warmed up. Pass nil on the first call. The returned tuple
// slice must not be mutated.
func (ix *Index) Lookup(key Tuple, buf []byte) ([]Tuple, []byte) {
	buf = key.AppendKey(buf[:0])
	return ix.buckets[string(buf)], buf
}

// LookupBytes returns the tuples for a key encoding built with
// Tuple.AppendKey/AppendKeyOn. The compiler's map-access-by-converted-
// []byte optimization keeps it allocation-free (pinned by
// TestIndexLookupAllocs), so probe loops can reuse one buffer. Safe for
// concurrent readers.
func (ix *Index) LookupBytes(key []byte) []Tuple { return ix.buckets[string(key)] }

// LookupKey returns the tuples for a precomputed key string (see
// Tuple.KeyOn). This avoids re-encoding in tight join loops.
func (ix *Index) LookupKey(key string) []Tuple { return ix.buckets[key] }

// GroupCount returns the number of distinct key groups in the index.
func (ix *Index) GroupCount() int { return len(ix.buckets) }

// GroupSizes returns the size of each key group, sorted ascending so the
// multiset has one canonical form regardless of map order. The
// planner uses this to build group-size histograms for support-
// selectivity estimation.
func (ix *Index) GroupSizes() []int {
	out := make([]int, 0, ix.GroupCount())
	for _, ts := range ix.buckets {
		out = append(out, len(ts))
	}
	sort.Ints(out)
	return out
}
