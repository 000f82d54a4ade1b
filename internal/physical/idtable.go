package physical

import "queryflocks/internal/storage"

// idTable is the executor's one hash table over ID rows: a set of
// fixed-width dictionary-ID tuples that numbers its members in first-seen
// order. The group operator's parameter groups and dedup keys, the
// decision barrier's buffered relation and MergeGroupStates' merged
// groups are all idTables. Open addressing with linear probing on
// storage.HashIDs; a slot holds the key's 32-bit hash beside its entry
// number, so a probe touches the row store only on a hash match and
// growth never rehashes a key. Equality is ID equality of the stored row
// — IDs are Equal-classes, so a set of ID rows is a set of tuples.
type idTable struct {
	width int
	n     int
	// rows is the row store, in chunks of idTableChunk entries: growing it
	// never copies a stored row, so a table of n rows allocates their bytes
	// once rather than twice over.
	rows [][]uint32
	// slots[i] is hash<<32 | entry+1, or 0 when free; len is a power of two.
	slots []uint64
	hash  func([]uint32) uint64
	key   []uint32 // insertRow's gather buffer
}

const (
	idTableMinSlots = 16
	// idTableChunk is the entries per row-store chunk, a power of two. The
	// first chunk grows by append, so a small table stays small.
	idTableChunk = 1 << 12
)

func newIDTable(width int) *idTable {
	return &idTable{
		width: width,
		slots: make([]uint64, idTableMinSlots),
		hash:  storage.HashIDs,
		key:   make([]uint32, width),
	}
}

// len returns the number of distinct rows inserted.
func (t *idTable) len() int { return t.n }

// row returns entry e's IDs; the slice aliases the table.
func (t *idTable) row(e int) []uint32 {
	if t.width == 0 {
		return nil
	}
	return t.rows[e/idTableChunk][e%idTableChunk*t.width:][:t.width]
}

// store appends key as entry t.n.
func (t *idTable) store(key []uint32) {
	if t.width == 0 {
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

// insert adds key (len == width) unless an equal row is present, and
// returns the row's entry number and whether this call added it.
func (t *idTable) insert(key []uint32) (entry int32, fresh bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	h64 := t.hash(key)
	h := uint32(h64>>32) ^ uint32(h64)
	mask := uint32(len(t.slots) - 1)
probe:
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = uint64(h)<<32 | uint64(t.n+1)
			t.store(key)
			t.n++
			return int32(t.n - 1), true
		}
		if uint32(s>>32) != h {
			continue
		}
		e := int(uint32(s)) - 1
		for c, id := range t.row(e) {
			if id != key[c] {
				continue probe
			}
		}
		return int32(e), false
	}
}

// columns copies the stored rows out in column-major form, entry order.
func (t *idTable) columns() [][]uint32 {
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

// insertRow inserts the projection of batch row i onto pos.
func (t *idTable) insertRow(batch colBatch, pos []int, i int) (entry int32, fresh bool) {
	for c, p := range pos {
		t.key[c] = batch.cols[p][i]
	}
	return t.insert(t.key)
}

// grow doubles the slot array, re-seating every entry by its stored hash.
func (t *idTable) grow() {
	slots := make([]uint64, 2*len(t.slots))
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
