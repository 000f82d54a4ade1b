package storage

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func mustBuildDict(t *testing.T, db *Database) *Dict {
	t.Helper()
	d, err := BuildDict(db)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func dictDB() *Database {
	db := NewDatabase()
	r := NewRelation("r", "A", "B")
	r.Insert(Tuple{Int(3), Str("b")})
	r.Insert(Tuple{Int(1), Str("a")})
	r.Insert(Tuple{Int(2), Str("c")})
	db.Add(r)
	return db
}

func TestBuildDictOrderPreserving(t *testing.T) {
	d := mustBuildDict(t, dictDB())
	// 6 distinct classes + null.
	if d.Len() != 7 {
		t.Fatalf("Len = %d, want 7", d.Len())
	}
	vals := []Value{Int(1), Int(2), Int(3), Str("a"), Str("b"), Str("c")}
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		id, ok := d.Lookup(v)
		if !ok {
			t.Fatalf("Lookup(%v) missed", v)
		}
		ids[i] = id
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not in Compare order: %v -> %v", vals, ids)
		}
		if ids[i] >= d.OrderExactLen() {
			t.Fatalf("built IDs %d,%d should be order-preserved", ids[i-1], ids[i])
		}
	}
	if id, _ := d.Lookup(Null()); id != NullID {
		t.Fatalf("null ID = %d", id)
	}
}

func TestDictCrossKindEquality(t *testing.T) {
	d := mustBuildDict(t, dictDB())
	// Int(1) and Float(1) are Equal, so they share one equality class.
	iid, ok := d.Lookup(Int(1))
	if !ok {
		t.Fatal("Int(1) missing")
	}
	fid, ok := d.Lookup(Float(1))
	if !ok {
		t.Fatal("Float(1) should hit Int(1)'s class")
	}
	if iid != fid {
		t.Fatalf("Int(1) id %d != Float(1) id %d", iid, fid)
	}
	if got := d.Intern(Float(1.0)); got != iid {
		t.Fatalf("Intern(Float(1)) = %d, want %d", got, iid)
	}
	// The representative is the stored value, so decode is exact for
	// base data.
	if v := d.Value(iid); !v.Equal(Int(1)) {
		t.Fatalf("Value(%d) = %v", iid, v)
	}
}

func TestDictInternAppends(t *testing.T) {
	d := mustBuildDict(t, dictDB())
	n := d.Len()
	id := d.Intern(Str("zzz"))
	if int(id) != n {
		t.Fatalf("appended id = %d, want %d", id, n)
	}
	if d.Len() != n+1 {
		t.Fatalf("Len after append = %d", d.Len())
	}
	if d.Misses() != 1 {
		t.Fatalf("misses = %d, want 1", d.Misses())
	}
	if again := d.Intern(Str("zzz")); again != id {
		t.Fatalf("re-intern = %d, want %d", again, id)
	}
	if d.Hits() == 0 {
		t.Fatal("re-intern should count a hit")
	}
	if _, ok := d.Lookup(Str("never")); ok {
		t.Fatal("Lookup of unseen value should miss")
	}
	// Appended IDs keep only the equality guarantee.
	if id < d.OrderExactLen() {
		t.Fatal("appended ID should not claim order preservation")
	}
}

func TestDictRoundTrip(t *testing.T) {
	db := dictDB()
	d := mustBuildDict(t, db)
	for _, tp := range db.MustRelation("r").Tuples() {
		for _, v := range tp {
			id := d.Intern(v)
			if got := d.Value(id); got != v {
				t.Fatalf("round-trip %v -> %d -> %v", v, id, got)
			}
		}
	}
	if d.Misses() != 0 {
		t.Fatalf("round-trip of built values missed %d times", d.Misses())
	}
}

func TestDictViewRefresh(t *testing.T) {
	d := NewDict()
	view := d.View()
	if view.Len() != 1 {
		t.Fatalf("fresh view len = %d", view.Len())
	}
	id := d.Intern(Int(42))
	if int(id) < view.Len() {
		t.Fatal("new ID should be past the stale view")
	}
	view = d.View()
	if !view.Value(id).Equal(Int(42)) {
		t.Fatalf("refreshed view decodes %v", view.Value(id))
	}
	if view.Kind(id) != KindInt {
		t.Fatalf("kind sidecar = %v", view.Kind(id))
	}
}

func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict()
	const goroutines, vals = 8, 200
	ids := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]uint32, vals)
			for i := 0; i < vals; i++ {
				ids[g][i] = d.Intern(Int(int64(i)))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < vals; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d interned Int(%d) as %d, goroutine 0 as %d", g, i, ids[g][i], ids[0][i])
			}
		}
	}
	if d.Len() != vals+1 {
		t.Fatalf("Len = %d, want %d", d.Len(), vals+1)
	}
}

func TestDatabaseDictSharedByClone(t *testing.T) {
	db := dictDB()
	clone := db.Clone()
	if mustDict(t, db) != mustDict(t, clone) {
		t.Fatal("clone should share the database's dictionary")
	}
}

// TestHashEquivalence pins what the ID table relies on in HashIDs: on
// one-ID tuples hash equality is ID equality (a one-column table compares
// hashes only), checked as distinct hashes over a dense ID range and by
// inverting the hash of random IDs; and dense IDs, alone and in pairs,
// spread over a half-full table's slots.
func TestHashEquivalence(t *testing.T) {
	const dense = 1 << 20
	seen := make(map[uint32]uint32, dense)
	for id := uint32(0); id < dense; id++ {
		h := HashIDs([]uint32{id})
		if prev, dup := seen[h]; dup {
			t.Fatalf("IDs %d and %d share hash %#x", prev, id, h)
		}
		seen[h] = id
	}
	// The inverse of one step: undo the fold, the multiply (by hashMul's
	// inverse mod 2^32) and the xor.
	inv := uint32(1)
	for i := 0; i < 5; i++ { // Newton: each round doubles the correct bits
		inv *= 2 - hashMul*inv
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100_000; i++ {
		id := rng.Uint32()
		h := HashIDs([]uint32{id})
		h ^= h >> 16
		if got := (h * inv) ^ hashSeed; got != id {
			t.Fatalf("hash of ID %d inverts to %d", id, got)
		}
	}
	for _, width := range []int{1, 2} {
		const n, mask = 1 << 15, 1<<16 - 1
		used := make(map[uint32]bool, n)
		key := make([]uint32, width)
		for i := uint32(0); i < n; i++ {
			key[0], key[width-1] = i/256, i
			used[HashIDs(key)&mask] = true
		}
		// Uniform hashing would fill 2(1-e^(-1/2)) ≈ 79% as many slots as
		// there are keys.
		if len(used) < n*7/10 {
			t.Fatalf("width %d: %d dense keys fill only %d distinct slots of %d", width, n, len(used), mask+1)
		}
	}
}

// FuzzDictCrossKind checks that Int/Float cross-kind equality through
// the dictionary matches Value.Equal for arbitrary numbers: interning
// both forms of any integer-valued float must yield one ID, and
// distinct numbers distinct IDs.
func FuzzDictCrossKind(f *testing.F) {
	f.Add(int64(1), 1.0)
	f.Add(int64(0), 0.0)
	f.Add(int64(-5), 2.5)
	f.Add(int64(1<<53), float64(1<<53))
	f.Fuzz(func(t *testing.T, n int64, x float64) {
		d := NewDict()
		in, fl := Int(n), Float(x)
		iid, fid := d.Intern(in), d.Intern(fl)
		if (iid == fid) != in.Equal(fl) {
			t.Fatalf("Int(%d) id %d, Float(%v) id %d, Equal=%v", n, iid, x, fid, in.Equal(fl))
		}
		if !d.Value(iid).Equal(in) || !d.Value(fid).Equal(fl) {
			t.Fatalf("round-trip broke: %v / %v", d.Value(iid), d.Value(fid))
		}
	})
}

// TestOrderExactLen pins the order-exact prefix rule: the prefix runs
// while the values strictly increase under Compare, and a NaN or an Int
// beyond ±2^53 anywhere leaves only null order-exact.
func TestOrderExactLen(t *testing.T) {
	const big = 1 << 53
	for _, tc := range []struct {
		name string
		vals []Value
		want uint32
	}{
		{"null only", []Value{Null()}, 1},
		{"bulk build", []Value{Null(), Int(-3), Float(-0.5), Int(2), Float(2.5), Str("a"), Str("b")}, 7},
		{"appended out of order", []Value{Null(), Int(1), Int(3), Int(2), Int(4)}, 3},
		{"appended in order", []Value{Null(), Int(1), Int(3), Str("z")}, 4},
		{"ints at ±2^53", []Value{Null(), Int(-big), Float(0.5), Int(big)}, 4},
		{"int past 2^53", []Value{Null(), Float(big), Int(big + 1)}, 1},
		{"int past -2^53", []Value{Null(), Int(-big - 1), Str("a")}, 1},
		{"nan", []Value{Null(), Int(1), Float(math.NaN()), Int(2)}, 1},
		{"late nan", []Value{Null(), Int(1), Int(2), Str("a"), Float(math.NaN())}, 1},
	} {
		if got := orderExactLen(tc.vals); got != tc.want {
			t.Errorf("%s: orderExactLen = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestBuildDictOrderExactness is the regression for the dictionary's
// order claim: a domain where Compare is not a total order on the classes
// (an Int past 2^53 next to the Float it rounds to, or a NaN) must not
// claim any ID but null as order-exact, and an ordinary domain claims all.
func TestBuildDictOrderExactness(t *testing.T) {
	const big = 1 << 53
	for _, tc := range []struct {
		name  string
		vals  []Value
		exact bool
	}{
		{"ordinary", []Value{Int(3), Float(2.5), Str("a"), Int(-1)}, true},
		{"2^53", []Value{Int(big + 1), Float(big), Int(big)}, false},
		{"nan", []Value{Int(1), Float(math.NaN()), Int(2)}, false},
	} {
		db := NewDatabase()
		r := NewRelation("r", "K", "V")
		for i, v := range tc.vals {
			r.Insert(Tuple{Int(int64(i % 2)), v})
		}
		db.Add(r)
		d := mustBuildDict(t, db)
		want := uint32(1)
		if tc.exact {
			want = uint32(d.Len())
		}
		if got := d.OrderExactLen(); got != want {
			t.Errorf("%s: OrderExactLen = %d of %d IDs, want %d", tc.name, got, d.Len(), want)
		}
	}
}

// TestReadDictRederivesOrderExactLen checks that a persisted DICT's
// order-exact length is re-derived from its values: a file claiming an
// out-of-order appended ID as order-exact loads with the true prefix.
func TestReadDictRederivesOrderExactLen(t *testing.T) {
	d := NewDict()
	d.Intern(Int(3))
	d.Intern(Int(1))
	d.exactLen = 3 // the file will claim Int(1), appended after Int(3), is ordered
	path := filepath.Join(t.TempDir(), "DICT")
	if err := writeDict(path, d); err != nil {
		t.Fatal(err)
	}
	got, _, err := readDictFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.OrderExactLen() != 2 {
		t.Fatalf("reloaded OrderExactLen = %d, want 2 (null and Int(3))", got.OrderExactLen())
	}
}

// TestPayloadLen: the length that presizes a DICT decode agrees with the
// decode on every payload kind, and rejects a malformed tail.
func TestPayloadLen(t *testing.T) {
	for _, v := range []Value{Null(), Int(-7), Float(2.5), Str(""), Str(strings.Repeat("w", 300))} {
		b := append(v.AppendPayload(nil), 0xee)
		n, err := payloadLen(b)
		if _, rest, derr := DecodePayloadValue(b); err != nil || derr != nil || n != len(b)-len(rest) {
			t.Errorf("%v: payloadLen = %d, %v; decode left %d of %d bytes (%v)", v, n, err, len(rest), len(b), derr)
		}
		if _, err := payloadLen(b[:n-1]); n > 1 && err == nil {
			t.Errorf("%v: truncated payload accepted", v)
		}
	}
	if _, err := payloadLen([]byte{0xff}); err == nil {
		t.Error("unknown kind accepted")
	}
}
