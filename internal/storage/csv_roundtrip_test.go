package storage

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestCSVRoundTripTypeStable is the regression for the type-unstable CSV
// round-trip: the writer used to render Str("123") bare, so it re-imported
// as Int(123); Str("NULL") likewise came back as a string only by accident
// of NULL not being parsed. Literal-based export must bring every value
// back with its semantics intact.
func TestCSVRoundTripTypeStable(t *testing.T) {
	rel := NewRelation("r", "A", "B")
	rows := []Tuple{
		{Str("123"), Int(123)},
		{Str("1.5"), Float(1.5)},
		{Str("NULL"), Null()},
		{Str(""), Str(" padded ")},
		{Str(`say "hi"`), Str("a,b")},
		{Str("line\nbreak"), Str(`"a"b`)},
		{Int(-9223372036854775808), Int(9223372036854775807)},
		{Float(0.25), Str("0.25")},
	}
	for _, r := range rows {
		rel.Insert(r)
	}

	var buf bytes.Buffer
	if err := WriteCSV(rel, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("r", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != rel.Len() {
		t.Fatalf("round-trip changed cardinality: %d -> %d", rel.Len(), back.Len())
	}
	for _, r := range rows {
		got, found := findByKey(back, r)
		if !found {
			t.Errorf("tuple %v lost in round-trip", r)
			continue
		}
		for i := range r {
			if got[i].Kind() != r[i].Kind() {
				t.Errorf("tuple %v column %d: kind %v came back as %v", r, i, r[i].Kind(), got[i].Kind())
			}
		}
	}
}

// findByKey locates the relation's tuple with t's key.
func findByKey(rel *Relation, t Tuple) (Tuple, bool) {
	want := t.Key()
	for _, u := range rel.Tuples() {
		if u.Key() == want {
			return u, true
		}
	}
	return nil, false
}

// TestCSVRoundTripProperty exports random relations and re-imports them:
// the result must be the same set of tuples, with each value in the same
// semantic equality class (Equal keys). Kinds may legally shift only
// within a class — Float(3) exports as "3" and re-imports as the Equal
// Int(3) — never across classes.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := NewRelation("r", "A", "B", "C")
		for i := 0; i < 30; i++ {
			rel.Insert(Tuple{randomValue(r), randomValue(r), randomValue(r)})
		}
		var buf bytes.Buffer
		if err := WriteCSV(rel, &buf); err != nil {
			return false
		}
		back, err := ReadCSV("r", &buf)
		if err != nil {
			return false
		}
		if back.Len() != rel.Len() {
			return false
		}
		for _, u := range rel.Tuples() {
			if !back.Contains(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestParseValueEdgeCases pins the tightened field grammar.
func TestParseValueEdgeCases(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"NULL", Null()},
		{`"NULL"`, Str("NULL")},
		{"42", Int(42)},
		{`"42"`, Str("42")},
		{"1.25", Float(1.25)},
		{`"1.25"`, Str("1.25")},
		{"", Str("")},
		{`""`, Str("")},
		{"abc", Str("abc")},
		{`"abc"`, Str("abc")},
		// Malformed quoted fields stay strings: the outer quotes are
		// stripped, the interior survives verbatim, and the content never
		// re-enters numeric parsing.
		{`"a"b`, Str(`a"b`)},
		{`"a`, Str("a")},
		{`"`, Str("")},
		{`"12"3`, Str(`12"3`)},
		// Escapes in well-formed quotes unquote fully.
		{`"say \"hi\""`, Str(`say "hi"`)},
		{"null", Str("null")}, // only the exact literal NULL is null
	}
	for _, c := range cases {
		got := ParseValue(c.in)
		if got.Kind() != c.want.Kind() || !got.Equal(c.want) {
			t.Errorf("ParseValue(%q) = %v (%v), want %v (%v)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
	if !strings.Contains(Str("x").Literal(), `"`) {
		t.Error("string Literal must be quoted")
	}
	if Null().Literal() != "NULL" {
		t.Error("NULL Literal")
	}
}
