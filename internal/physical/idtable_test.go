package physical

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// mapTable is the map[string]-of-packed-IDs structure idTable replaced,
// kept as the differential reference and the benchmark's other side.
type mapTable struct {
	index map[string]int32
	buf   []byte
}

func (m *mapTable) insert(key []uint32) (int32, bool) {
	m.buf = m.buf[:0]
	for _, id := range key {
		m.buf = binary.LittleEndian.AppendUint32(m.buf, id)
	}
	if e, ok := m.index[string(m.buf)]; ok {
		return e, false
	}
	e := int32(len(m.index))
	m.index[string(m.buf)] = e
	return e, true
}

// checkAgainstMap inserts keys into t and into the reference and requires
// the same entry numbers, the same fresh verdicts and the rows back.
func checkAgainstMap(t *testing.T, tab *idTable, keys [][]uint32) {
	t.Helper()
	ref := &mapTable{index: make(map[string]int32)}
	var first [][]uint32
	for i, k := range keys {
		e, fresh := tab.insert(k)
		we, wfresh := ref.insert(k)
		if e != we || fresh != wfresh {
			t.Fatalf("insert %d %v: entry %d fresh %v, want entry %d fresh %v", i, k, e, fresh, we, wfresh)
		}
		if fresh {
			first = append(first, k)
		}
	}
	if tab.len() != len(first) {
		t.Fatalf("len %d, want %d", tab.len(), len(first))
	}
	for e, k := range first {
		if got := tab.row(e); fmt.Sprint(got) != fmt.Sprint(k) {
			t.Fatalf("row %d = %v, want %v (first-seen order)", e, got, k)
		}
	}
}

func randomKeys(rng *rand.Rand, n, width int, domain uint32) [][]uint32 {
	keys := make([][]uint32, n)
	for i := range keys {
		k := make([]uint32, width)
		for c := range k {
			k[c] = rng.Uint32() % domain
		}
		keys[i] = k
	}
	return keys
}

// TestIDTable drives every key width the executor uses — none (a flock
// without parameters groups everything into one group), one and two (the
// widths the old structure special-cased), and wider than eight bytes —
// through growth of the slots and, at the wider widths, past two row-store
// chunk boundaries, with enough repeats that many inserts are lookups.
func TestIDTable(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, width := range []int{0, 1, 2, 3, 7} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			tab := newIDTable(width)
			checkAgainstMap(t, tab, randomKeys(rng, 12_000, width, 40))
			if width > 2 && len(tab.rows) < 3 {
				t.Fatalf("%d rows stayed in %d row-store chunks", tab.len(), len(tab.rows))
			}
			if width > 1 && len(tab.slots) <= idTableMinSlots {
				t.Fatalf("%d rows never grew the table past %d slots", tab.len(), len(tab.slots))
			}
			if 2*tab.len() > len(tab.slots) {
				t.Fatalf("%d rows in %d slots: over half full", tab.len(), len(tab.slots))
			}
		})
	}
}

// TestIDTableCollisions forces every key onto one hash (and then onto
// two), so membership rests on comparing the stored rows alone, probe
// sequences run the table's whole population, and growth re-seats
// colliding entries.
func TestIDTableCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, hash := range map[string]func([]uint32) uint64{
		"constant":   func([]uint32) uint64 { return 0xdeadbeef },
		"two-valued": func(k []uint32) uint64 { return uint64(k[0]&1) << 63 },
		// Differs only above bit 32 of the fold: same slot, distinct tags.
		"same-slot": func(k []uint32) uint64 { return uint64(k[0]) << 40 },
	} {
		t.Run(name, func(t *testing.T) {
			tab := newIDTable(3)
			tab.hash = hash
			checkAgainstMap(t, tab, randomKeys(rng, 600, 3, 6))
		})
	}
}

// FuzzIDTable is the differential against map[string]: the input bytes
// are a sequence of keys over a small domain (so repeats are common), of
// a width the first byte picks.
func FuzzIDTable(f *testing.F) {
	f.Add([]byte{2, 1, 2, 1, 2, 3, 4, 1, 2})
	f.Add([]byte{0, 9, 9, 9})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := int(data[0] % 6)
		data = data[1:]
		var keys [][]uint32
		for len(data) >= max(width, 1) {
			k := make([]uint32, width)
			for c := range k {
				k[c] = uint32(data[c])
			}
			keys = append(keys, k)
			data = data[max(width, 1):]
		}
		checkAgainstMap(t, newIDTable(width), keys)
	})
}

// BenchmarkIDTable compares idTable with the map[string] of packed IDs
// it replaced, on the group operator's load: the item pairs of a
// 50k-row intermediate (three IDs a row, every row new) and their
// 20k two-ID parameter groups (three inserts in five are lookups).
func BenchmarkIDTable(b *testing.B) {
	rng := rand.New(rand.NewSource(1998))
	groups := randomKeys(rng, 20_000, 2, 1000)
	rows := make([][]uint32, 50_000)
	for i := range rows {
		g := groups[rng.Intn(len(groups))]
		rows[i] = []uint32{g[0], g[1], uint32(i)}
	}
	for _, load := range []struct {
		name  string
		width int
		keys  [][]uint32
	}{{"rows", 3, rows}, {"groups", 2, rows}} {
		b.Run(load.name+"/idTable", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab := newIDTable(load.width)
				for _, k := range load.keys {
					tab.insert(k[:load.width])
				}
			}
		})
		b.Run(load.name+"/map", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ref := &mapTable{index: make(map[string]int32)}
				for _, k := range load.keys {
					ref.insert(k[:load.width])
				}
			}
		})
	}
}
