package storage

import (
	"bytes"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sortKeyConsistent reports whether a value lies in the domain where
// Value.Compare is itself a consistent total order: everything except
// NaNs and numerics of magnitude > 2^53 (where Compare's float images
// alias distinct ints and transitivity already fails).
func sortKeyConsistent(v Value) bool {
	// Strict bounds: float64(2^53 + 1) rounds to exactly 2^53, so the
	// boundary itself already aliases a neighboring int.
	switch v.Kind() {
	case KindInt:
		f := v.AsFloat()
		return f > -(1<<53) && f < 1<<53
	case KindFloat:
		f := v.AsFloat()
		return !math.IsNaN(f) && f > -(1<<53) && f < 1<<53
	default:
		return true
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

// checkSortKeyPair checks the sort key a data directory stores rows
// under — the ID tuple against the persisted DICT — on the pair v, w:
// the two share an ID exactly when they share an AppendKey class, ID
// order agrees with Value.Compare on the domain where Compare is
// consistent, and the column file of the relation {(v,w), (w,v), (v,v)}
// holds its rows in strictly increasing ID order and reads back as the
// same ID rows.
func checkSortKeyPair(t *testing.T, v, w Value) {
	t.Helper()
	db := NewDatabase()
	rel := NewRelation("r", "a", "b")
	rel.Insert(Tuple{v, w})
	rel.Insert(Tuple{w, v})
	rel.Insert(Tuple{v, v})
	db.Add(rel)
	d, err := BuildDict(db)
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := d.Lookup(v)
	iw, _ := d.Lookup(w)
	if (iv == iw) != bytes.Equal(v.AppendKey(nil), w.AppendKey(nil)) {
		t.Fatalf("ID equality disagrees with AppendKey classes: %v -> %d, %v -> %d", v, iv, w, iw)
	}
	if sortKeyConsistent(v) && sortKeyConsistent(w) {
		if got, want := sign(int(iv)-int(iw)), sign(v.Compare(w)); got != want {
			t.Fatalf("ID order of %v (%d) and %v (%d) is %d, Value.Compare %d", v, iv, w, iw, got, want)
		}
	}
	cols, err := sortedIDColumns(rel, d)
	if err != nil {
		t.Fatal(err)
	}
	rows, back, err := readColumnFile("r", appendColumnFile(nil, rel.Len(), cols), d.Len(), nil)
	if err != nil {
		t.Fatalf("column file of %v: %v", rel.Tuples(), err)
	}
	if rows != rel.Len() || !reflect.DeepEqual(back, cols) {
		t.Fatalf("column file of %v read back as %d rows %v, want %v", rel.Tuples(), rows, back, cols)
	}
}

func checkPayloadRoundTrip(t *testing.T, v Value) {
	t.Helper()
	got, rest, err := DecodePayloadValue(v.AppendPayload(nil))
	if err != nil {
		t.Fatalf("payload round trip of %v: %v", v, err)
	}
	if len(rest) != 0 {
		t.Fatalf("payload of %v left %d bytes", v, len(rest))
	}
	if got != v && !(v.Kind() == KindFloat && got.Kind() == KindFloat &&
		math.Float64bits(got.AsFloat()) == math.Float64bits(v.AsFloat())) {
		t.Fatalf("payload round trip of %#v gave %#v", v, got)
	}
}

func TestSortKeyProperties(t *testing.T) {
	values := []Value{
		Null(),
		Int(0), Int(1), Int(-1), Int(42), Int(-42),
		Int(math.MaxInt64), Int(math.MinInt64),
		Int(1 << 53), Int(1<<53 + 1), Int(-(1 << 53)),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(1.5), Float(-1.5),
		Float(math.Pi), Float(-math.Pi), Float(1e300), Float(-1e300),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
		Float(1 << 53), Float(9.3e18), // out of int64 range
		Str(""), Str("a"), Str("ab"), Str("b"),
		Str("a\x00"), Str("a\x00x"), Str("a\x01"), Str("a\x01\x02"),
		Str("\x00"), Str("\x01"), Str("\x02"), Str("\x00\xff"), Str("\xff"),
		Str("NULL"), Str("query flocks"),
	}
	for _, v := range values {
		checkPayloadRoundTrip(t, v)
		for _, w := range values {
			checkSortKeyPair(t, v, w)
		}
	}
}

// FuzzSortKey fuzzes round-trip exactness of the payload codec plus the
// ID-tuple sort key of column files (see checkSortKeyPair) across mixed
// kinds. Seeds include every token
// of the examples corpus so the fuzzer starts from realistic values.
func FuzzSortKey(f *testing.F) {
	seed := func(s string) { f.Add(s, s, int64(len(s)), float64(len(s)), uint8(3), uint8(3)) }
	seed("")
	seed("beer")
	seed("a\x00b\x01c")
	f.Add("x", "y", int64(1<<53), 1.5, uint8(1), uint8(2))
	f.Add("", "", int64(-1), math.Copysign(0, -1), uint8(2), uint8(1))
	f.Add("NULL", "0", int64(0), 0.0, uint8(0), uint8(3))
	dir := filepath.Join("..", "..", "examples", "flocks")
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				continue
			}
			for _, tok := range strings.Fields(string(raw)) {
				seed(tok)
			}
		}
	}
	mk := func(kind uint8, s string, i int64, fl float64) Value {
		switch kind % 4 {
		case 0:
			return Null()
		case 1:
			return Int(i)
		case 2:
			return Float(fl)
		default:
			return Str(s)
		}
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, i int64, fl float64, k1, k2 uint8) {
		v := mk(k1, s1, i, fl)
		w := mk(k2, s2, i+1, fl/3)
		checkPayloadRoundTrip(t, v)
		checkPayloadRoundTrip(t, w)
		checkSortKeyPair(t, v, w)

		// Tuple-level: payload codec round-trips the pair exactly.
		tup := Tuple{v, w}
		back, err := DecodePayloadTuple(tup.AppendPayload(nil), 2)
		if err != nil {
			t.Fatalf("tuple payload round trip: %v", err)
		}
		for i := range tup {
			if math.Float64bits(floatOf(back[i])) != math.Float64bits(floatOf(tup[i])) || back[i].Kind() != tup[i].Kind() {
				t.Fatalf("tuple payload round trip of %#v gave %#v", tup, back)
			}
		}
	})
}

// floatOf maps a value onto a comparable float image for the round-trip
// check (strings hash by content instead).
func floatOf(v Value) float64 {
	switch v.Kind() {
	case KindInt:
		return float64(v.AsInt())
	case KindFloat:
		return v.AsFloat()
	case KindString:
		h := fnv.New64a()
		h.Write([]byte(v.AsString()))
		return float64(h.Sum64())
	default:
		return 0
	}
}
