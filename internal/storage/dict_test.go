package storage

import (
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
		if !d.OrderPreserved(ids[i-1], ids[i]) {
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
	if d.OrderPreserved(1, id) {
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

// TestHashEquivalence pins the three FNV-1a entry points together: the
// byte and string forms must agree (shard routing builds keys as bytes
// but can look them up as strings), and hashIDs must equal hashing the
// packed-ID encoding (the row and columnar paths partition identically).
func TestHashEquivalence(t *testing.T) {
	keys := [][]byte{nil, {}, {0}, {0xff, 0x00, 0x7f}, []byte("query flocks")}
	for _, k := range keys {
		if hashKey(k) != fnv1a(string(k)) {
			t.Fatalf("hashKey(%x) != fnv1a of the same bytes as a string", k)
		}
	}
	idTuples := [][]uint32{{}, {0}, {1, 2, 3}, {0xdeadbeef, 0, 0xffffffff}}
	for _, ids := range idTuples {
		if hashIDs(ids) != hashKey(packIDs(nil, ids)) {
			t.Fatalf("hashIDs(%v) != fnv1a(packIDs(%v))", ids, ids)
		}
		if HashIDs(ids) != hashIDs(ids) {
			t.Fatal("exported HashIDs drifted from hashIDs")
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
