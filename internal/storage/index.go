package storage

// Index is a hash index mapping the key of a column-subset projection to
// the decoded tuples holding that projection. It serves only the
// materializing reference executor (eval.ExecMaterialize); every other
// consumer reads a relation's IDIndex. Indexes are built lazily by
// Relation.Index and discarded when the relation changes. Within a
// bucket, tuples keep relation insertion order.
type Index struct {
	buckets map[string][]Tuple
}

// buildIndex builds the index of tuples on cols.
func buildIndex(tuples []Tuple, cols []int) *Index {
	ix := &Index{buckets: make(map[string][]Tuple, len(tuples))}
	for _, t := range tuples {
		k := t.KeyOn(cols)
		ix.buckets[k] = append(ix.buckets[k], t)
	}
	return ix
}

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
