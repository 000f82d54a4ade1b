package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ReadCSV loads a relation from CSV. The first record is the header giving
// column names; every field is converted with ParseValue (NULL, then ints,
// then floats, then strings; a quoted field is always a string). Duplicate
// rows collapse under set semantics.
func ReadCSV(name string, r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validate arity ourselves for a better message
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("storage: reading CSV header for %q: %w", name, err)
	}
	for i := range header {
		header[i] = strings.TrimSpace(header[i])
	}
	rel := NewRelation(name, header...)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("storage: reading CSV for %q: %w", name, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("storage: %q line %d: %d fields, want %d", name, line, len(rec), len(header))
		}
		t := make(Tuple, len(rec))
		for i, f := range rec {
			t[i] = ParseValue(strings.TrimSpace(f))
		}
		rel.Insert(t)
	}
	return rel, nil
}

// ReadCSVFile loads a relation from a CSV file; the relation name is the
// file's base name without extension.
func ReadCSVFile(path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	defer f.Close()
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	return ReadCSV(name, f)
}

// WriteCSV writes the relation (header + sorted tuples) as CSV. Fields are
// rendered with Value.Literal so the export re-imports type-stably: string
// values are quoted (Str("123") comes back a string, not an int, and
// Str("NULL") comes back a string, not a null), numbers and NULL are bare.
func WriteCSV(rel *Relation, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(rel.Columns()); err != nil {
		return fmt.Errorf("storage: writing CSV header for %q: %w", rel.Name(), err)
	}
	rec := make([]string, rel.Arity())
	for _, t := range rel.Sorted() {
		for i, v := range t {
			rec[i] = v.Literal()
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("storage: writing CSV for %q: %w", rel.Name(), err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the relation to the named file.
func WriteCSVFile(rel *Relation, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	if err := WriteCSV(rel, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadDir loads every *.csv file in dir into a fresh database whose
// relations sit in its dictionary: the files are read, the dictionary is
// built from them (BuildDict's order-exact build), and each relation is
// remapped into it once, through a per-class array.
func LoadDir(dir string) (*Database, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	db := NewDatabase()
	for _, p := range paths {
		rel, err := ReadCSVFile(p)
		if err != nil {
			return nil, err
		}
		db.Add(rel)
	}
	dict, err := BuildDict(db)
	if err != nil {
		return nil, err
	}
	for _, name := range db.Names() {
		r := db.MustSource(name).(*Relation)
		ids, _ := remapColumns(r.ids, r.Len(), r.dict, dict, nil)
		db.Add(newRelationFromColumns(dict, r.name, r.cols, ids, r.Len()))
	}
	db.seedDict(dict)
	return db, nil
}
