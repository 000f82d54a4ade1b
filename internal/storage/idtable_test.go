package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// packKey is the little-endian 4-byte-per-ID encoding of a key: the map
// key of the reference structures below.
func packKey(dst []byte, key []uint32) []byte {
	for _, id := range key {
		dst = binary.LittleEndian.AppendUint32(dst, id)
	}
	return dst
}

// mapTable is the map[string]-of-packed-IDs structure IDTable replaced,
// kept as the differential reference and the benchmark's other side.
type mapTable struct {
	index map[string]int32
	buf   []byte
}

func (m *mapTable) find(key []uint32) int32 {
	m.buf = packKey(m.buf[:0], key)
	if e, ok := m.index[string(m.buf)]; ok {
		return e
	}
	return -1
}

func (m *mapTable) insert(key []uint32) (int32, bool) {
	if e := m.find(key); e >= 0 {
		return e, false
	}
	e := int32(len(m.index))
	m.index[string(m.buf)] = e
	return e, true
}

// checkAgainstMap inserts keys into t and into the reference and requires
// the same entry numbers, the same fresh verdicts, the same Find answers
// before each insert and after all of them, and the rows back. A key
// outside every inserted one (IDs of all ones) must never be found.
func checkAgainstMap(t *testing.T, tab *IDTable, keys [][]uint32) {
	t.Helper()
	ref := &mapTable{index: make(map[string]int32)}
	absent := make([]uint32, tab.width)
	for c := range absent {
		absent[c] = ^uint32(0)
	}
	var first [][]uint32
	for i, k := range keys {
		if got, want := tab.Find(k), ref.find(k); got != want {
			t.Fatalf("find %d %v before insert: entry %d, want %d", i, k, got, want)
		}
		e, fresh := tab.Insert(k)
		we, wfresh := ref.insert(k)
		if e != we || fresh != wfresh {
			t.Fatalf("insert %d %v: entry %d fresh %v, want entry %d fresh %v", i, k, e, fresh, we, wfresh)
		}
		if fresh {
			first = append(first, k)
		}
	}
	if tab.Len() != len(first) {
		t.Fatalf("len %d, want %d", tab.Len(), len(first))
	}
	for e, k := range first {
		if got := tab.Row(e); fmt.Sprint(got) != fmt.Sprint(k) {
			t.Fatalf("row %d = %v, want %v (first-seen order)", e, got, k)
		}
		if got := tab.Find(k); got != int32(e) {
			t.Fatalf("find %v = %d, want its entry %d", k, got, e)
		}
	}
	if (tab.width > 0 || len(first) == 0) && tab.Find(absent) != -1 {
		t.Fatalf("find of never-inserted %v = %d, want -1", absent, tab.Find(absent))
	}
}

// checkIndex builds the ID index of keys (one row each) on their columns
// in reverse order and requires every key's row list, and a never-present
// key's empty one, to match a map of row lists built from the same rows.
func checkIndex(t *testing.T, width int, keys [][]uint32) {
	t.Helper()
	cols := make([][]uint32, width)
	for c := range cols {
		cols[c] = make([]uint32, len(keys))
		for i, k := range keys {
			cols[c][i] = k[c]
		}
	}
	on := make([]int, width)
	for j := range on {
		on[j] = width - 1 - j
	}
	ix := buildIDIndex(cols, on, len(keys))
	want := make(map[string][]int32)
	var distinct [][]uint32
	for i, k := range keys {
		proj := make([]uint32, width)
		for j, p := range on {
			proj[j] = k[p]
		}
		pk := string(packKey(nil, proj))
		if want[pk] == nil {
			distinct = append(distinct, proj)
		}
		want[pk] = append(want[pk], int32(i))
	}
	if ix.keys.Len() != len(want) {
		t.Fatalf("index holds %d keys, want %d", ix.keys.Len(), len(want))
	}
	for _, proj := range distinct {
		if got, w := ix.Lookup(proj), want[string(packKey(nil, proj))]; !reflect.DeepEqual(got, w) {
			t.Fatalf("lookup %v = rows %v, want %v", proj, got, w)
		}
	}
	proj := make([]uint32, width)
	for j := range proj {
		proj[j] = ^uint32(0)
	}
	if got := ix.Lookup(proj); (width > 0 || len(keys) == 0) && len(got) != 0 {
		t.Fatalf("lookup of absent %v = rows %v, want none", proj, got)
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
// widths the old map-keyed structures special-cased), and wider than eight
// bytes — through growth of the slots and, at the wider widths, past two
// row-store chunk boundaries, with enough repeats that many inserts are
// lookups. The same keys, as rows, are indexed against a map of row lists.
func TestIDTable(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, width := range []int{0, 1, 2, 3, 7} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			tab := NewIDTable(width)
			keys := randomKeys(rng, 12_000, width, 40)
			checkAgainstMap(t, tab, keys)
			if width > 2 && len(tab.rows) < 3 {
				t.Fatalf("%d rows stayed in %d row-store chunks", tab.Len(), len(tab.rows))
			}
			if width > 1 && len(tab.slots) <= idTableMinSlots {
				t.Fatalf("%d rows never grew the table past %d slots", tab.Len(), len(tab.slots))
			}
			if 2*tab.Len() > len(tab.slots) {
				t.Fatalf("%d rows in %d slots: over half full", tab.Len(), len(tab.slots))
			}
			checkIndex(t, width, keys)
		})
	}
}

// TestIDTableCollisions forces every key of two and three columns onto
// one hash (and then onto two), so membership rests on comparing the
// stored rows alone, probe sequences run the table's whole population,
// and growth re-seats colliding entries.
func TestIDTableCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, hash := range map[string]func([]uint32) uint32{
		"constant":   func([]uint32) uint32 { return 0xdeadbeef },
		"two-valued": func(k []uint32) uint32 { return (k[0] & 1) << 31 },
		// Differs only above every bit a 216-key table masks: same slot,
		// distinct hashes.
		"same-slot": func(k []uint32) uint32 { return k[0] << 20 },
	} {
		t.Run(name, func(t *testing.T) {
			for _, width := range []int{2, 3} {
				tab := NewIDTable(width)
				tab.hash = hash
				checkAgainstMap(t, tab, randomKeys(rng, 600, width, 6))
			}
		})
	}
}

// FuzzIDTable is the differential against map[string] and a map of row
// lists: the input bytes are a sequence of keys over a small domain (so
// repeats are common), of a width the first byte picks.
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
		checkAgainstMap(t, NewIDTable(width), keys)
		checkIndex(t, width, keys)
	})
}

// The map shapes the IDTable-backed set and index replaced, kept as the
// benchmark's other side: one- and two-column keys on the IDs directly.
func pair64(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

func mapIndex1(col []uint32) map[uint32][]int32 {
	m := make(map[uint32][]int32, len(col))
	for i, id := range col {
		m[id] = append(m[id], int32(i))
	}
	return m
}

func mapIndex2(a, b []uint32) map[uint64][]int32 {
	m := make(map[uint64][]int32, len(a))
	for i := range a {
		k := pair64(a[i], b[i])
		m[k] = append(m[k], int32(i))
	}
	return m
}

// The index builds' results, kept so the compiler keeps the builds.
var (
	benchIndex *IDIndex
	benchMap1  map[uint32][]int32
	benchMap2  map[uint64][]int32
)

// BenchmarkIDTable compares IDTable with the map structures it replaced.
// rows and groups are the group operator's load: the item pairs of a
// 50k-row intermediate (three IDs a row, every row new) and their 20k
// two-ID parameter groups (three inserts in five are lookups), against a
// map[string] of packed IDs. member probes a 1- and 2-column set of 50k
// rows 65,536 times, half of the probes absent, against map[uint32] and
// map[uint64] sets. index builds a 1- and 2-column ID index over 200k rows
// and 20k keys, and looks up 65,536 keys in it, against map[uint32] and
// map[uint64] row lists.
//
//	go test -run '^$' -bench BenchmarkIDTable -benchmem ./internal/storage/
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
		b.Run(load.name+"/IDTable", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab := NewIDTable(load.width)
				for _, k := range load.keys {
					tab.Insert(k[:load.width])
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

	// Membership: stored rows are distinct IDs below 1<<20; a probe is a
	// stored row or the same row shifted past every stored ID.
	const nSet, nProbe = 50_000, 1 << 16
	setCols := [][]uint32{make([]uint32, nSet), make([]uint32, nSet)}
	for i := 0; i < nSet; i++ {
		setCols[0][i] = uint32(rng.Intn(1 << 20))
		setCols[1][i] = uint32(i)
	}
	probes := make([][2]uint32, nProbe)
	for i := range probes {
		r := rng.Intn(nSet)
		probes[i] = [2]uint32{setCols[0][r], setCols[1][r]}
		if i%2 == 1 {
			probes[i][0] += 1 << 20
			probes[i][1] += 1 << 20
		}
	}
	for _, width := range []int{1, 2} {
		cols := setCols[2-width:] // width 1: the distinct row numbers
		set := newIDSet(cols, nSet)
		b.Run(fmt.Sprintf("member/w=%d/IDTable", width), func(b *testing.B) {
			key := make([]uint32, width)
			for i := 0; i < b.N; i++ {
				hits := 0
				for _, p := range probes {
					copy(key, p[2-width:])
					if set.Find(key) >= 0 {
						hits++
					}
				}
				if hits == 0 {
					b.Fatal("no probe hit")
				}
			}
		})
		b.Run(fmt.Sprintf("member/w=%d/map", width), func(b *testing.B) {
			m1 := make(map[uint32]struct{}, nSet)
			m2 := make(map[uint64]struct{}, nSet)
			for i := 0; i < nSet; i++ {
				if width == 1 {
					m1[cols[0][i]] = struct{}{}
				} else {
					m2[pair64(cols[0][i], cols[1][i])] = struct{}{}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits := 0
				for _, p := range probes {
					var ok bool
					if width == 1 {
						_, ok = m1[p[1]]
					} else {
						_, ok = m2[pair64(p[0], p[1])]
					}
					if ok {
						hits++
					}
				}
				if hits == 0 {
					b.Fatal("no probe hit")
				}
			}
		})
	}

	// Index: 200k rows over 20k distinct keys.
	const nRows, nKeys = 200_000, 20_000
	ixCols := [][]uint32{make([]uint32, nRows), make([]uint32, nRows)}
	for i := 0; i < nRows; i++ {
		k := groups[rng.Intn(nKeys)]
		ixCols[0][i], ixCols[1][i] = k[0], k[1]
	}
	lookups := make([][2]uint32, nProbe)
	for i := range lookups {
		r := rng.Intn(nRows)
		lookups[i] = [2]uint32{ixCols[0][r], ixCols[1][r]}
	}
	for _, width := range []int{1, 2} {
		on := []int{0, 1}[:width]
		b.Run(fmt.Sprintf("index-build/w=%d/IDTable", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchIndex = buildIDIndex(ixCols, on, nRows)
			}
		})
		b.Run(fmt.Sprintf("index-build/w=%d/map", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if width == 1 {
					benchMap1 = mapIndex1(ixCols[0])
				} else {
					benchMap2 = mapIndex2(ixCols[0], ixCols[1])
				}
			}
		})
		ix := buildIDIndex(ixCols, on, nRows)
		b.Run(fmt.Sprintf("index-lookup/w=%d/IDTable", width), func(b *testing.B) {
			key := make([]uint32, width)
			for i := 0; i < b.N; i++ {
				n := 0
				for _, l := range lookups {
					copy(key, l[:width])
					n += len(ix.Lookup(key))
				}
				if n == 0 {
					b.Fatal("no lookup matched")
				}
			}
		})
		b.Run(fmt.Sprintf("index-lookup/w=%d/map", width), func(b *testing.B) {
			m1, m2 := mapIndex1(ixCols[0]), mapIndex2(ixCols[0], ixCols[1])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for _, l := range lookups {
					if width == 1 {
						n += len(m1[l[0]])
					} else {
						n += len(m2[pair64(l[0], l[1])])
					}
				}
				if n == 0 {
					b.Fatal("no lookup matched")
				}
			}
		})
	}
}
