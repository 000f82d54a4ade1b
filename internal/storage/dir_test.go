package storage

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCreateDirSyncsCatalogPublish is the regression test for the
// ingest-durability bug: CreateDir wrote segments, dictionary, and
// catalog without a single fsync, so a crash after it returned could
// lose the whole acknowledged ingest — or worse, leave a catalog whose
// bytes reached disk referencing segments whose bytes did not. The
// catalog publish must sync the file and then the directory, which also
// persists the segment and dictionary entries created before it.
func TestCreateDirSyncsCatalogPublish(t *testing.T) {
	db := NewDatabase()
	rel := NewRelation("r", "A", "B")
	rel.Insert(Tuple{Int(1), Int(2)})
	db.Add(rel)
	dir := t.TempDir()

	calls := 0
	orig := fsyncDir
	fsyncDir = func(path string) error {
		if path != dir {
			t.Errorf("fsyncDir(%q), want the data directory %q", path, dir)
		}
		calls++
		return orig(path)
	}
	defer func() { fsyncDir = orig }()

	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("CreateDir returned without syncing the data directory: a crash would lose the acknowledged ingest")
	}
}

// TestAppendDeltaSyncsDirectoryEntry is the regression test for the
// mutate-durability bug: AppendDelta fsynced the delta file's bytes but
// never the directory, so a crash after the acknowledgement could lose a
// freshly created delta file's *name* — and with it the whole batch.
// The fix must sync the directory exactly when the file is new; appends
// to an existing delta file (whose entry already survived a sync) must
// not pay for it again.
func TestAppendDeltaSyncsDirectoryEntry(t *testing.T) {
	db := NewDatabase()
	rel := NewRelation("r", "A", "B")
	rel.Insert(Tuple{Int(1), Int(2)})
	db.Add(rel)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	_, handle, err := OpenDir(dir, EngineMemory)
	if err != nil {
		t.Fatal(err)
	}

	calls := 0
	orig := fsyncDir
	fsyncDir = func(path string) error {
		if path != dir {
			t.Errorf("fsyncDir(%q), want the data directory %q", path, dir)
		}
		calls++
		return orig(path)
	}
	defer func() { fsyncDir = orig }()

	if err := handle.AppendDelta("r", []Tuple{{Int(3), Int(4)}}, 2); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("fresh delta file: directory synced %d times, want 1 (a crash would lose the new entry)", calls)
	}
	if err := handle.AppendDelta("r", []Tuple{{Int(5), Int(6)}}, 3); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("existing delta file: directory synced %d times total, want still 1", calls)
	}

	// Restart durability: a fresh open (either engine) must serve both
	// acknowledged batches at the bumped version.
	for _, engine := range []Engine{EngineMemory, EngineDisk} {
		re, _, err := OpenDir(dir, engine)
		if err != nil {
			t.Fatal(err)
		}
		if re.Version() != 3 {
			t.Fatalf("%v: reopened version %d, want 3", engine, re.Version())
		}
		got, err := re.Relation("r")
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 3 {
			t.Fatalf("%v: reopened with %d rows, want 3", engine, got.Len())
		}
		for _, tp := range []Tuple{{Int(3), Int(4)}, {Int(5), Int(6)}} {
			if !got.Contains(tp) {
				t.Fatalf("%v: acknowledged row %v missing after restart", engine, tp)
			}
		}
	}
}

// TestAppendDeltaFsyncDirFailure: a directory-sync failure must fail the
// append (the caller then refuses to publish the bumped version) rather
// than acknowledge a batch that may not survive.
func TestAppendDeltaFsyncDirFailure(t *testing.T) {
	db := NewDatabase()
	rel := NewRelation("r", "A")
	rel.Insert(Tuple{Int(1)})
	db.Add(rel)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	_, handle, err := OpenDir(dir, EngineMemory)
	if err != nil {
		t.Fatal(err)
	}
	orig := fsyncDir
	fsyncDir = func(string) error { return errSyncFailed }
	defer func() { fsyncDir = orig }()
	if err := handle.AppendDelta("r", []Tuple{{Int(2)}}, 2); err != errSyncFailed {
		t.Fatalf("AppendDelta with failing directory sync: err = %v, want %v", err, errSyncFailed)
	}
}

var errSyncFailed = errTest("directory sync failed")

type errTest string

func (e errTest) Error() string { return string(e) }

// scanAll drains every relation of db through Scan, in name order; a
// failed read is returned as the error.
func scanAll(db *Database) (map[string][]Tuple, error) {
	out := make(map[string][]Tuple)
	for _, name := range db.Names() {
		var rows []Tuple
		if err := ForEach(db.MustSource(name).Scan(), func(t Tuple) error {
			rows = append(rows, t.Clone())
			return nil
		}); err != nil {
			return nil, err
		}
		out[name] = rows
	}
	return out, nil
}

// openScan opens dir with the engine and reads every relation back.
func openScan(dir string, engine Engine) (map[string][]Tuple, uint64, error) {
	db, _, err := OpenDir(dir, engine)
	if err != nil {
		return nil, 0, err
	}
	rows, err := scanAll(db)
	return rows, db.Version(), err
}

// TestCorruptDataDirNeverServed flips one bit at every byte of every
// column file and of DICT: on both engines each flip must end as an
// OpenDir error or a *SegmentError at first touch, never as a row set
// that differs from the original.
func TestCorruptDataDirNeverServed(t *testing.T) {
	dir := t.TempDir()
	if err := CreateDir(dir, testDB(t)); err != nil {
		t.Fatal(err)
	}
	engines := []Engine{EngineMemory, EngineDisk}
	want := make(map[Engine]map[string][]Tuple)
	for _, e := range engines {
		rows, _, err := openScan(dir, e)
		if err != nil {
			t.Fatal(err)
		}
		want[e] = rows
	}
	files := []string{dictFile, "baskets" + colExt, "weights" + colExt}
	for _, name := range files {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := range orig {
			flipped := append([]byte(nil), orig...)
			flipped[off] ^= 1 << (off % 8)
			if err := os.WriteFile(path, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, e := range engines {
				db, _, err := OpenDir(dir, e)
				if err != nil {
					continue
				}
				got, err := scanAll(db)
				var segErr *SegmentError
				if err != nil && !errors.As(err, &segErr) {
					t.Fatalf("%s byte %d, %v engine: first touch failed with %v, want a SegmentError", name, off, e, err)
				}
				if err == nil && !reflect.DeepEqual(got, want[e]) {
					t.Fatalf("%s byte %d, %v engine: a corrupt file was served as a different row set", name, off, e)
				}
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornDeltaBatchIsUnacknowledged cuts the last delta batch at every
// byte and flips every byte of it: since AppendDelta acknowledges only
// after its fsync, such a batch was never acknowledged, and OpenDir must
// yield the state before it on both engines. The next append cuts the
// torn tail off, so a reopen then sees the earlier rows plus the new
// ones. A bad batch followed by an intact one is an error naming the file.
func TestTornDeltaBatchIsUnacknowledged(t *testing.T) {
	dir := t.TempDir()
	if err := CreateDir(dir, testDB(t)); err != nil {
		t.Fatal(err)
	}
	_, handle, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "baskets"+deltaExt)
	if err := handle.AppendDelta("baskets", []Tuple{{Int(900), Str("beer")}}, 2); err != nil {
		t.Fatal(err)
	}
	engines := []Engine{EngineMemory, EngineDisk}
	before := make(map[Engine]map[string][]Tuple)
	for _, e := range engines {
		if before[e], _, err = openScan(dir, e); err != nil {
			t.Fatal(err)
		}
	}
	pre, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := handle.AppendDelta("baskets", []Tuple{{Int(901), Str("kale")}, {Int(902), Float(2.5)}}, 3); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var torn [][]byte
	for n := len(pre); n < len(full); n++ {
		torn = append(torn, full[:n])
	}
	for off := len(pre); off < len(full); off++ {
		flipped := append([]byte(nil), full...)
		flipped[off] ^= 1 << (off % 8)
		torn = append(torn, flipped)
	}
	next := Tuple{Int(903), Str("salsa")}
	appendNext := func(engine Engine) int64 {
		t.Helper()
		_, h, err := OpenDir(dir, engine)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.AppendDelta("baskets", []Tuple{next}, 3); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if err := os.WriteFile(path, pre, 0o644); err != nil {
		t.Fatal(err)
	}
	clean := appendNext(EngineDisk) // the file an append to the untorn state leaves
	for i, b := range torn {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			rows, version, err := openScan(dir, e)
			if err != nil {
				t.Fatalf("case %d, %v engine: %v", i, e, err)
			}
			if version != 2 || !reflect.DeepEqual(rows, before[e]) {
				t.Fatalf("case %d, %v engine: version %d, rows differ from the state before the torn batch", i, e, version)
			}
		}
		if size := appendNext(engines[i%2]); size != clean {
			t.Fatalf("case %d: the append left a %d-byte delta file, want %d (the torn tail cut off)", i, size, clean)
		}
		for _, e := range engines {
			rows, version, err := openScan(dir, e)
			if err != nil {
				t.Fatalf("case %d, %v engine after the next append: %v", i, e, err)
			}
			got := rows["baskets"]
			want := append(append([]Tuple(nil), before[e]["baskets"]...), next)
			if version != 3 || !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d, %v engine after the next append: version %d, %d rows, want the %d before plus %v",
					i, e, version, len(got), len(before[e]["baskets"]), next)
			}
		}
	}

	corrupt := append([]byte(nil), full...)
	corrupt[len(deltaMagic)+13] ^= 1 // inside the first, non-final batch
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		if _, _, err := OpenDir(dir, e); err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("%v engine: a corrupt non-final batch gave %v, want an error naming %s", e, err, path)
		}
	}
}

// TestOpenDirRejectsOtherFormats: a directory written in another format
// is refused with the migration named, not misread.
func TestOpenDirRejectsOtherFormats(t *testing.T) {
	dir := t.TempDir()
	if err := CreateDir(dir, testDB(t)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, catalogFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(raw), `"format": 2`, `"format": 1`, 1)
	if old == string(raw) {
		t.Fatal("catalog does not record format 2")
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{EngineMemory, EngineDisk} {
		_, _, err := OpenDir(dir, e)
		if err == nil || !strings.Contains(err.Error(), "flockgen -data-dir") || !strings.Contains(err.Error(), "storage.CreateDir") {
			t.Fatalf("%v engine: format 1 gave %v, want an error naming the migration", e, err)
		}
	}
}

// TestOpenDirRequiresDict: the column files are IDs into DICT, so a
// directory without it cannot be read.
func TestOpenDirRequiresDict(t *testing.T) {
	dir := t.TempDir()
	if err := CreateDir(dir, testDB(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, dictFile)); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{EngineMemory, EngineDisk} {
		if _, _, err := OpenDir(dir, e); err == nil {
			t.Fatalf("%v engine: opened a data directory without DICT", e)
		}
	}
}
