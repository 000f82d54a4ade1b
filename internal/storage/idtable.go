package storage

// hashSeed and hashMul are HashIDs' start value and multiplier: odd, with
// bits spread over the whole word (the 32-bit golden ratio for hashMul).
const (
	hashSeed = 0x243f6a88
	hashMul  = 0x9e3779b9
)

// HashIDs is the ID table's 32-bit slot hash of a dictionary-ID tuple,
// computed one ID at a time: xor the ID into the state, multiply by an odd
// constant, fold the high half into the low one. Each step is a bijection
// of the ID for a given state, so on one-ID tuples the whole hash is one:
// equal hashes mean equal IDs, and a one-column table compares hashes
// only. The hash lives only in memory; nothing persists or ships it.
func HashIDs(ids []uint32) uint32 {
	h := uint32(hashSeed)
	for _, id := range ids {
		h = (h ^ id) * hashMul
		h ^= h >> 16
	}
	return h
}

// IDTable is the one hash table over ID rows: a set of fixed-width
// dictionary-ID tuples that numbers its members in first-seen order. A
// relation's membership set is one (RelationSource.IDSet, over the
// relation's columns: newIDSet), an IDIndex keeps its distinct keys in
// one, and the executor's parameter groups,
// dedup keys, decision-barrier buffer and merged groups are all
// IDTables. Open addressing with linear probing on HashIDs; a slot holds
// the key's hash beside its entry number, so a probe touches the row store
// only on a hash match (and never in a one-column table, where equal
// hashes mean equal IDs), and growth never rehashes a key. Equality is ID
// equality of the stored row — IDs are Equal-classes, so a set of ID rows
// is a set of tuples. Find is safe for concurrent readers once the table
// is no longer inserted into.
type IDTable struct {
	width int
	n     int
	// rows is the row store, in chunks of idTableChunk entries: growing it
	// never copies a stored row, so a table of n rows allocates their bytes
	// once rather than twice over.
	rows [][]uint32
	// cols, when set, replaces rows: entry e is row e of these
	// column-major IDs, which their owner appends to (newIDSet).
	cols [][]uint32
	// slots[i] is hash<<32 | entry+1, or 0 when free; len is a power of two.
	slots []uint64
	// hash, when set, replaces HashIDs: tests force collisions through it
	// (on tables wider than one column, whose probes compare rows).
	hash func([]uint32) uint32
	key  []uint32 // gather buffer of InsertAt and Relation.Insert
}

const (
	idTableMinSlots = 16
	// idTableChunk is the entries per row-store chunk, a power of two. The
	// first chunk grows by append, so a small table stays small.
	idTableChunk = 1 << 12
)

// NewIDTable returns an empty table of width-column rows.
func NewIDTable(width int) *IDTable {
	return &IDTable{
		width: width,
		slots: make([]uint64, idTableMinSlots),
		key:   make([]uint32, width),
	}
}

// Len returns the number of distinct rows inserted.
func (t *IDTable) Len() int { return t.n }

// Row returns entry e's IDs; the slice aliases the table. Row and Columns
// are for the tables NewIDTable makes, not for a newIDSet.
func (t *IDTable) Row(e int) []uint32 {
	if t.width == 0 {
		return nil
	}
	return t.rows[uint(e)/idTableChunk][uint(e)%idTableChunk*uint(t.width):][:t.width]
}

// store appends key as entry t.n.
func (t *IDTable) store(key []uint32) {
	if t.width == 0 || t.cols != nil {
		return
	}
	c := t.n / idTableChunk
	if c == len(t.rows) {
		var chunk []uint32
		if c > 0 {
			chunk = make([]uint32, 0, idTableChunk*t.width)
		}
		t.rows = append(t.rows, chunk)
	}
	t.rows[c] = append(t.rows[c], key...)
}

// probe returns key's hash and the slot holding it, or the free
// slot where it would go.
func (t *IDTable) probe(key []uint32) (h uint32, slot int) {
	if t.hash != nil {
		h = t.hash(append([]uint32(nil), key...)) // a copy: key stays on its caller's stack
	} else {
		h = HashIDs(key)
	}
	mask := uint32(len(t.slots) - 1)
probe:
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return h, int(i)
		}
		if uint32(s>>32) != h {
			continue
		}
		if t.width == 1 {
			return h, int(i)
		}
		if e := int(uint32(s)) - 1; t.cols != nil {
			for c, col := range t.cols {
				if col[e] != key[c] {
					continue probe
				}
			}
		} else {
			for c, id := range t.Row(e) {
				if id != key[c] {
					continue probe
				}
			}
		}
		return h, int(i)
	}
}

// Find returns the entry number of key (len == width), or -1 when no
// equal row was inserted. It allocates nothing.
func (t *IDTable) Find(key []uint32) int32 {
	_, i := t.probe(key)
	return int32(uint32(t.slots[i])) - 1
}

// Grow makes room for n more rows: the next n inserts re-seat nothing.
func (t *IDTable) Grow(n int) {
	size := len(t.slots)
	for 2*(t.n+n) > size {
		size *= 2
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

// Insert adds key (len == width) unless an equal row is present, and
// returns the row's entry number and whether this call added it.
func (t *IDTable) Insert(key []uint32) (entry int32, fresh bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	h, i := t.probe(key)
	if s := t.slots[i]; s != 0 {
		return int32(uint32(s)) - 1, false
	}
	t.slots[i] = uint64(h)<<32 | uint64(t.n+1)
	t.store(key)
	t.n++
	return int32(t.n - 1), true
}

// InsertAt inserts the projection of row i of the column-major cols onto
// the column positions pos (len == width).
func (t *IDTable) InsertAt(cols [][]uint32, pos []int, i int) (entry int32, fresh bool) {
	for c, p := range pos {
		t.key[c] = cols[p][i]
	}
	return t.Insert(t.key)
}

// Columns copies the stored rows out in column-major form, entry order.
func (t *IDTable) Columns() [][]uint32 {
	cols := make([][]uint32, t.width)
	for c := range cols {
		cols[c] = make([]uint32, t.n)
	}
	e := 0
	for _, chunk := range t.rows {
		for i := 0; i < len(chunk); i += t.width {
			for c, col := range cols {
				col[e] = chunk[i+c]
			}
			e++
		}
	}
	return cols
}

// resize replaces the slot array with one of size slots (a power of two),
// re-seating every entry by its stored hash.
func (t *IDTable) resize(size int) {
	slots := make([]uint64, size)
	mask := uint32(len(slots) - 1)
	for _, s := range t.slots {
		if s == 0 {
			continue
		}
		i := uint32(s>>32) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	t.slots = slots
}

// newIDSet returns the set of the first n (distinct) rows of the
// column-major cols, in row order. It stores no rows but reads cols,
// sharing its outer slice: an owner that inserts a row, then appends it
// to every column when fresh (Relation.InsertIDs), keeps the two in step.
func newIDSet(cols [][]uint32, n int) *IDTable {
	all := make([]int, len(cols))
	for j := range all {
		all[j] = j
	}
	s := NewIDTable(len(cols))
	s.cols = cols
	s.Grow(n)
	for i := 0; i < n; i++ {
		s.InsertAt(cols, all, i)
	}
	return s
}

// IDIndex maps the IDs of a column subset to the row numbers holding
// them: the distinct keys in an IDTable and the rows of key e at
// rows[start[e]:start[e+1]], in scan order — lookups therefore enumerate
// matches exactly like the byte-keyed Index's buckets.
type IDIndex struct {
	keys  *IDTable
	start []int32 // len keys.Len()+1
	rows  []int32
}

func buildIDIndex(idCols [][]uint32, cols []int, n int) *IDIndex {
	keys := NewIDTable(len(cols))
	rows := make([]int32, n)
	key := make([]int32, n) // row i's key entry
	for i := range key {
		key[i], _ = keys.InsertAt(idCols, cols, i)
	}
	// Counting sort by key, stable: count each key's rows into end[e+1],
	// sum to end offsets, then place rows backwards, which leaves end[e+1]
	// at key e's start.
	end := make([]int32, keys.Len()+1)
	for _, e := range key {
		end[e+1]++
	}
	for e := 1; e < len(end); e++ {
		end[e] += end[e-1]
	}
	for i := n - 1; i >= 0; i-- {
		e := key[i] + 1
		end[e]--
		rows[end[e]] = int32(i)
	}
	start := end
	copy(start, start[1:])
	start[len(start)-1] = int32(n)
	return &IDIndex{keys: keys, start: start, rows: rows}
}

// Lookup returns the row numbers whose indexed columns equal the given
// key IDs (in index-column order), in scan order. The returned slice must
// not be mutated. It allocates nothing.
func (ix *IDIndex) Lookup(ids []uint32) []int32 {
	if t := ix.keys; t.width == 1 && t.hash == nil {
		// The join probe's common case, probed in line: on one ID a slot
		// whose hash matches holds the key (see HashIDs).
		h := HashIDs(ids)
		mask := uint32(len(t.slots) - 1)
		for i := h & mask; ; i = (i + 1) & mask {
			s := t.slots[i]
			if s == 0 {
				return nil
			}
			if uint32(s>>32) == h {
				e := uint32(s) - 1
				return ix.rows[ix.start[e]:ix.start[e+1]]
			}
		}
	}
	e := ix.keys.Find(ids)
	if e < 0 {
		return nil
	}
	return ix.rows[ix.start[e]:ix.start[e+1]]
}
