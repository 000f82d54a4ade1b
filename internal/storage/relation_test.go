package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTupleKeyInjective(t *testing.T) {
	// Tuples that differ in content or boundary placement must key apart.
	a := Tuple{Str("ab"), Str("c")}
	b := Tuple{Str("a"), Str("bc")}
	if a.Key() == b.Key() {
		t.Error("boundary-shifted tuples collided")
	}
	c := Tuple{Int(1), Int(2)}
	d := Tuple{Int(1), Int(2)}
	if c.Key() != d.Key() {
		t.Error("equal tuples keyed differently")
	}
}

func TestTupleKeyInjectiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() Tuple {
			n := r.Intn(4)
			tp := make(Tuple, n)
			for i := range tp {
				tp[i] = randomValue(r)
			}
			return tp
		}
		a, b := mk(), mk()
		// Key equality must coincide with semantic (Equal) equality: the
		// encoding is kind-insensitive for Equal numerics, so Tuple{Int(1)}
		// and Tuple{Float(1)} share a key.
		if (a.Key() == b.Key()) != a.Equal(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestTupleProjectAndKeyOn(t *testing.T) {
	tp := Tuple{Int(1), Str("x"), Float(2.5)}
	p := tp.Project([]int{2, 0})
	want := Tuple{Float(2.5), Int(1)}
	if !p.Equal(want) {
		t.Errorf("Project = %v, want %v", p, want)
	}
	if tp.KeyOn([]int{2, 0}) != want.Key() {
		t.Error("KeyOn disagrees with Project().Key()")
	}
}

func TestTupleCompare(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Tuple{Int(1)}, Tuple{Int(2)}, -1},
		{Tuple{Int(1)}, Tuple{Int(1), Int(0)}, -1},
		{Tuple{Str("b")}, Tuple{Str("a"), Int(9)}, 1},
		{Tuple{}, Tuple{}, 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRelationSetSemantics(t *testing.T) {
	r := NewRelation("baskets", "BID", "Item")
	if !r.InsertValues(Int(1), Str("beer")) {
		t.Error("first insert reported duplicate")
	}
	if r.InsertValues(Int(1), Str("beer")) {
		t.Error("duplicate insert reported added")
	}
	r.InsertValues(Int(1), Str("diapers"))
	r.InsertValues(Int(2), Str("beer"))
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	if !r.Contains(Tuple{Int(1), Str("beer")}) {
		t.Error("Contains missed an inserted tuple")
	}
	if r.Contains(Tuple{Int(9), Str("beer")}) {
		t.Error("Contains found a missing tuple")
	}

	// Dedup and the dictionary's classes are one notion (AppendKey): Int(1)
	// and Float(1) are one row, which reads back as the class
	// representative, the value stored first.
	x := NewRelation("x", "A")
	if !x.InsertValues(Int(1)) || x.InsertValues(Float(1)) || x.Len() != 1 {
		t.Fatalf("Int(1) then Float(1): len %d, want 1", x.Len())
	}
	if got := x.Tuples()[0][0]; got.Kind() != KindInt || !x.Contains(Tuple{Float(1)}) {
		t.Errorf("stored %v (kind %v), want the representative Int(1)", got, got.Kind())
	}
	y := NewRelation("y", "A", "B")
	y.InsertValues(Str("a"), Int(2))
	y.InsertValues(Str("b"), Float(2)) // a new row, whose Float(2) reads back as Int(2)
	if tu := y.Tuples(); y.Len() != 2 || tu[1][1].Kind() != KindInt {
		t.Errorf("second row %v, want (b, 2) with the representative Int(2)", tu)
	}
}

func TestRelationArityPanics(t *testing.T) {
	r := NewRelation("r", "A", "B")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	r.Insert(Tuple{Int(1)})
}

func TestNewRelationValidation(t *testing.T) {
	for _, cols := range [][]string{{"A", "A"}, {""}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRelation(%v): expected panic", cols)
				}
			}()
			NewRelation("bad", cols...)
		}()
	}
}

func TestRelationIndex(t *testing.T) {
	r := NewRelation("baskets", "BID", "Item")
	r.InsertValues(Int(1), Str("beer"))
	r.InsertValues(Int(1), Str("diapers"))
	r.InsertValues(Int(2), Str("beer"))

	ix := r.Index([]int{r.ColumnIndex("BID")})
	got, _ := ix.Lookup(Tuple{Int(1)}, nil)
	if len(got) != 2 {
		t.Errorf("Lookup(BID=1) returned %d tuples, want 2", len(got))
	}
	if n, err := r.DistinctCount("BID"); err != nil || n != 2 {
		t.Errorf("DistinctCount(BID) = %d, %v, want 2", n, err)
	}
	if n, err := r.DistinctCount("Item"); err != nil || n != 2 {
		t.Errorf("DistinctCount(Item) = %d, %v, want 2", n, err)
	}

	// Index and statistics invalidation on insert.
	r.InsertValues(Int(3), Str("relish"))
	ix2 := r.Index([]int{r.ColumnIndex("BID")})
	if got, _ := ix2.Lookup(Tuple{Int(3)}, nil); len(got) != 1 {
		t.Errorf("post-insert Lookup(BID=3) returned %d tuples, want 1", len(got))
	}
	if sizes, _ := r.GroupSizes("BID"); len(sizes) != 3 {
		t.Errorf("post-insert GroupSizes(BID) = %v, want 3 groups", sizes)
	}
}

func TestRelationSortedAndEqual(t *testing.T) {
	a := NewRelation("a", "X")
	b := NewRelation("b", "X")
	for _, v := range []int64{3, 1, 2} {
		a.InsertValues(Int(v))
	}
	for _, v := range []int64{2, 3, 1} {
		b.InsertValues(Int(v))
	}
	if !a.Equal(b) {
		t.Error("same-set relations not Equal")
	}
	sorted := a.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Compare(sorted[i]) >= 0 {
			t.Error("Sorted not in order")
		}
	}
	b.InsertValues(Int(99))
	if a.Equal(b) {
		t.Error("different-size relations Equal")
	}

	// In an order-exact dictionary the rows sort on their IDs, which must
	// give the order of the decoded tuples sorted by value.
	src := NewRelation("src", "X", "Y")
	for i := 0; i < 300; i++ {
		src.InsertValues([]Value{Int(int64(i % 17)), Float(float64(i) / 4), Str(fmt.Sprint(i % 23))}[i%3], Int(int64(i%5)))
	}
	db := NewDatabase()
	db.Add(src)
	dict, err := BuildDict(db)
	if err != nil {
		t.Fatal(err)
	}
	in := NewRelationIn(dict, "in", "X", "Y")
	in.InsertAll(src)
	want := in.Tuples()
	sort.Slice(want, func(i, j int) bool { return want[i].Compare(want[j]) < 0 })
	if got := in.Sorted(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ID-order Sorted differs from value order:\n got %v\nwant %v", got, want)
	}
}

func TestRelationRenameSharesData(t *testing.T) {
	r := NewRelation("r", "A")
	r.InsertValues(Int(1))
	v := r.Rename("view", []string{"Z"})
	if v.Name() != "view" || v.Columns()[0] != "Z" || v.Len() != 1 {
		t.Errorf("Rename view wrong: %v", v)
	}
}

// TestRelationIDRowsMembership: a relation built from some of another's
// ID rows in its dictionary (as a partition's cut is) keeps them in the
// given order, and its membership set holds exactly them — for lookups
// from concurrent readers and for later inserts alike.
func TestRelationIDRowsMembership(t *testing.T) {
	r := NewRelation("r", "A")
	for i := int64(0); i < 10; i++ {
		r.InsertValues(Int(i))
	}
	ids, err := r.InternedColumns(r.Dict(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := NewRelationIn(r.Dict(), "r", r.Columns()...)
	for _, i := range []int{7, 2, 5, 2} {
		sub.InsertIDs([]uint32{ids[0][i]})
	}
	if sub.Name() != "r" || sub.Len() != 3 || !sub.Tuples()[0][0].Equal(Int(7)) {
		t.Fatalf("ID rows wrong: %s", sub.Dump())
	}
	done := make(chan bool, 4)
	for g := 0; g < 4; g++ {
		go func() { done <- sub.Contains(Tuple{Int(2)}) && !sub.Contains(Tuple{Int(3)}) }()
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Fatal("Subset membership wrong under concurrent readers")
		}
	}
	if sub.Insert(Tuple{Int(5)}) || !sub.Insert(Tuple{Int(3)}) || sub.Len() != 4 || r.Len() != 10 {
		t.Errorf("Insert into a Subset: len %d, parent len %d", sub.Len(), r.Len())
	}
}

func TestRelationCloneIndependent(t *testing.T) {
	r := NewRelation("r", "A")
	r.InsertValues(Int(1))
	c := r.Clone()
	c.InsertValues(Int(2))
	if r.Len() != 1 || c.Len() != 2 {
		t.Errorf("Clone not independent: r=%d c=%d", r.Len(), c.Len())
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	r := NewRelation("baskets", "BID", "Item")
	db.Add(r)
	got, err := db.Relation("baskets")
	if err != nil || got != r {
		t.Fatalf("Relation lookup failed: %v", err)
	}
	if _, err := db.Relation("nope"); err == nil {
		t.Error("missing relation should error")
	}
	if !db.Has("baskets") || db.Has("nope") {
		t.Error("Has wrong")
	}

	clone := db.Clone()
	clone.Add(NewRelation("tmp", "X"))
	if db.Has("tmp") {
		t.Error("Clone leaked a relation into the original")
	}
	clone.Remove("tmp")
	if clone.Has("tmp") {
		t.Error("Remove failed")
	}
	if len(db.Names()) != 1 || db.Names()[0] != "baskets" {
		t.Errorf("Names = %v", db.Names())
	}
}

func TestStats(t *testing.T) {
	r := NewRelation("exhibits", "P", "S")
	// symptom s1 -> 3 patients, s2 -> 1 patient
	r.InsertValues(Int(1), Str("s1"))
	r.InsertValues(Int(2), Str("s1"))
	r.InsertValues(Int(3), Str("s1"))
	r.InsertValues(Int(4), Str("s2"))
	db := NewDatabase()
	db.Add(r)
	st := NewStats(db)

	if st.Rows("exhibits") != 4 {
		t.Errorf("Rows = %d", st.Rows("exhibits"))
	}
	if st.Distinct("exhibits", "S") != 2 {
		t.Errorf("Distinct = %d", st.Distinct("exhibits", "S"))
	}
	if got := st.SurvivorFraction("exhibits", "S", 2); got != 0.5 {
		t.Errorf("SurvivorFraction = %g, want 0.5", got)
	}
	// cached path returns the same
	if got := st.SurvivorFraction("exhibits", "S", 2); got != 0.5 {
		t.Errorf("cached SurvivorFraction = %g", got)
	}
	if st.Rows("absent") != 0 || st.Distinct("absent", "X") != 0 {
		t.Error("absent relation stats should be 0")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := NewRelation("t", "A", "B")
	r.InsertValues(Int(1), Str("x"))
	r.InsertValues(Int(2), Str("hello, world"))
	r.InsertValues(Float(2.5), Str(""))

	var buf strings.Builder
	if err := WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("t", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", got.Dump(), r.Dump())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("A,B\n1\n")); err == nil {
		t.Error("short row should error")
	}
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
}
