package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFrameLog feeds arbitrary bytes to the frame reader DICT and the
// delta files share, under each file's magic, and its frames to that
// file's decoder. Nothing may panic, and the reader's result must be an
// error or a prefix of whole frames: re-framing the bodies it returns
// rebuilds the input exactly up to the end it reports. The seeds are a
// real data directory's DICT (a base frame and append frames) and delta
// file, torn and whole.
func FuzzFrameLog(f *testing.F) {
	dir := f.TempDir()
	if err := CreateDir(dir, frameFuzzDB()); err != nil {
		f.Fatal(err)
	}
	db, h, err := OpenDir(dir, EngineDisk)
	if err != nil {
		f.Fatal(err)
	}
	for i, rows := range [][]Tuple{{{Int(900), Str("kale")}}, {{Int(1), Float(2.5)}, {Int(901), Str("a")}}} {
		if err := mutateDir(db, h, "r", rows, uint64(i+2)); err != nil {
			f.Fatal(err)
		}
	}
	for _, name := range []string{dictFile, "r" + deltaExt} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)-3])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, magic := range []string{dictMagic, deltaMagic} {
			frames, end, err := parseFrames(raw, magic)
			if err != nil {
				continue
			}
			var b []byte
			if end > 0 {
				b = []byte(magic)
			}
			for _, body := range frames {
				b = appendFrame(b, body)
			}
			if end > len(raw) || !bytes.Equal(b, raw[:end]) {
				t.Fatalf("under %q the reader returned %d frames ending at %d, not a prefix of the %d input bytes", magic, len(frames), end, len(raw))
			}
			if magic == dictMagic {
				if d, err := dictFromFrames(frames); err == nil && d.Len() < 1 {
					t.Fatal("a dictionary without the null value")
				}
				continue
			}
			dict := NewDict()
			for i := 0; i < 8; i++ {
				dict.Intern(Int(int64(i)))
			}
			for _, arity := range []int{0, 2} {
				rel := NewRelationIn(dict, "r", []string{"a", "b"}[:arity]...)
				if _, err := insertDelta(rel, frames); err == nil && arity == 0 && rel.Len() > 1 {
					t.Fatalf("a nullary delta of %d rows", rel.Len())
				}
			}
		}
	})
}

func frameFuzzDB() *Database {
	db := NewDatabase()
	r := NewRelation("r", "a", "b")
	r.InsertValues(Int(1), Str("x"))
	r.InsertValues(Int(2), Float(0.5))
	db.Add(r)
	return db
}
