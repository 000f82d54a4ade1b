package storage

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVFileRoundTripAndLoadDir(t *testing.T) {
	dir := t.TempDir()
	a := NewRelation("alpha", "X", "Y")
	a.InsertValues(Int(1), Str("one"))
	a.InsertValues(Int(2), Str("two, with comma"))
	b := NewRelation("beta", "Z")
	b.InsertValues(Float(2.5))
	for _, rel := range []*Relation{a, b} {
		if err := WriteCSVFile(rel, filepath.Join(dir, rel.Name()+".csv")); err != nil {
			t.Fatal(err)
		}
	}

	loadedA, err := ReadCSVFile(filepath.Join(dir, "alpha.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if loadedA.Name() != "alpha" || !loadedA.Equal(a) {
		t.Errorf("ReadCSVFile mismatch:\n%s", loadedA.Dump())
	}

	db, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Has("alpha") || !db.Has("beta") {
		t.Fatalf("LoadDir relations: %v", db.Names())
	}
	if !db.MustRelation("beta").Equal(b) {
		t.Error("beta content mismatch")
	}
	if s := db.String(); !strings.Contains(s, "alpha") || !strings.Contains(s, "beta") {
		t.Errorf("Database.String = %q", s)
	}

	// Error paths.
	if _, err := ReadCSVFile(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
	if err := WriteCSVFile(a, filepath.Join(dir, "nodir", "x", "a.csv")); err == nil {
		t.Error("unwritable path should error")
	}
	if _, err := LoadDir(filepath.Join(dir, "empty-nonexistent")); err != nil {
		// Glob on a nonexistent dir returns no matches, not an error.
		t.Errorf("LoadDir on missing dir: %v", err)
	}
}

func TestMustRelationPanics(t *testing.T) {
	db := NewDatabase()
	defer func() {
		if recover() == nil {
			t.Error("MustRelation on missing name should panic")
		}
	}()
	db.MustRelation("ghost")
}

func TestAccessorsSmoke(t *testing.T) {
	r := NewRelation("r", "A", "B")
	r.InsertValues(Int(1), Str("x"))
	if len(r.Tuples()) != 1 {
		t.Error("Tuples")
	}
	ix := r.Index([]int{r.ColumnIndex("A")})
	if got, _ := ix.Lookup(Tuple{Int(1)}, nil); len(got) != 1 {
		t.Error("Lookup")
	}
	if r.String() == "" || r.Dump() == "" {
		t.Error("String/Dump empty")
	}
	tp := r.Tuples()[0]
	c := tp.Clone()
	c[0] = Int(99)
	if tp[0] != Int(1) {
		t.Error("Clone not independent")
	}
	if tp.String() != "(1, x)" {
		t.Errorf("Tuple.String = %q", tp.String())
	}
	if !tp.Equal(Tuple{Int(1), Str("x")}) || tp.Equal(Tuple{Int(1)}) {
		t.Error("Tuple.Equal")
	}
	if Value(Int(3)).String() != "3" || Null().String() != "NULL" {
		t.Error("Value.String")
	}
}

func TestDistinctCountMissingColumn(t *testing.T) {
	r := NewRelation("r", "A")
	if _, err := r.DistinctCount("Nope"); err == nil {
		t.Error("DistinctCount of a missing column should fail")
	}
}

func TestRenameArityPanics(t *testing.T) {
	r := NewRelation("r", "A", "B")
	defer func() {
		if recover() == nil {
			t.Error("Rename with wrong column count should panic")
		}
	}()
	r.Rename("v", []string{"OnlyOne"})
}
