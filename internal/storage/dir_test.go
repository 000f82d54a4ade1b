package storage

import (
	"encoding/binary"
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
	db, handle, err := OpenDir(dir, EngineMemory)
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

	if err := mutateDir(db, handle, "r", []Tuple{{Int(3), Int(4)}}, 2); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("fresh delta file: directory synced %d times, want 1 (a crash would lose the new entry)", calls)
	}
	if err := mutateDir(db, handle, "r", []Tuple{{Int(5), Int(6)}}, 3); err != nil {
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
	db, handle, err := OpenDir(dir, EngineMemory)
	if err != nil {
		t.Fatal(err)
	}
	orig := fsyncDir
	fsyncDir = func(string) error { return errSyncFailed }
	defer func() { fsyncDir = orig }()
	if err := mutateDir(db, handle, "r", []Tuple{{Int(2)}}, 2); err != errSyncFailed {
		t.Fatalf("AppendDelta with failing directory sync: err = %v, want %v", err, errSyncFailed)
	}
}

// mutateDir applies tuples to the named relation of db the way flockd's
// /mutate does: the source's WithDelta, AppendDelta of the added ID rows
// stamped with version, then the new view published in db at version.
func mutateDir(db *Database, h *Dir, rel string, tuples []Tuple, version uint64) error {
	next, added, err := db.MustSource(rel).WithDelta(tuples)
	if err != nil {
		return err
	}
	if err := h.AppendDelta(rel, added, version); err != nil {
		return err
	}
	db.AddSource(next)
	db.SetVersion(version)
	return nil
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
// column file and of DICT, in a directory whose DICT has an append frame
// that its delta batch references: on both engines each flip must end as
// an OpenDir error or a *SegmentError at first touch, never as a row set
// that differs from the original.
func TestCorruptDataDirNeverServed(t *testing.T) {
	dir := t.TempDir()
	if err := CreateDir(dir, testDB(t)); err != nil {
		t.Fatal(err)
	}
	db, handle, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	if err := mutateDir(db, handle, "baskets", []Tuple{{Int(900), Str("kale")}, {Int(1), Str("mustard")}}, 2); err != nil {
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

// TestTornDeltaBatchIsUnacknowledged cuts the last frame of a frame log at
// every byte and flips every byte of it: the last delta batch (its DICT
// frame intact), and a DICT append frame with no delta batch after it —
// the crash between AppendDelta's two fsyncs. Since AppendDelta
// acknowledges only after its last fsync, neither was acknowledged, and
// OpenDir must yield the state before it on both engines. The next append
// cuts the torn tail off, so it leaves both files the size an append to
// the untorn state leaves, and a reopen sees the earlier rows plus the new
// ones. A bad batch followed by an intact one, and an intact batch naming
// an ID the DICT lacks, are errors naming the file.
func TestTornDeltaBatchIsUnacknowledged(t *testing.T) {
	dir := t.TempDir()
	if err := CreateDir(dir, testDB(t)); err != nil {
		t.Fatal(err)
	}
	db, handle, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	deltaPath := filepath.Join(dir, "baskets"+deltaExt)
	dictPath := filepath.Join(dir, dictFile)
	read := func(path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	restore := func(dict, delta []byte) {
		t.Helper()
		if err := os.WriteFile(dictPath, dict, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(deltaPath, delta, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := mutateDir(db, handle, "baskets", []Tuple{{Int(900), Str("beer")}}, 2); err != nil {
		t.Fatal(err)
	}
	engines := []Engine{EngineMemory, EngineDisk}
	before := make(map[Engine]map[string][]Tuple)
	for _, e := range engines {
		if before[e], _, err = openScan(dir, e); err != nil {
			t.Fatal(err)
		}
	}
	preDict, preDelta := read(dictPath), read(deltaPath)
	if err := mutateDir(db, handle, "baskets", []Tuple{{Int(901), Str("kale")}, {Int(902), Float(2.5)}}, 3); err != nil {
		t.Fatal(err)
	}
	fullDict, fullDelta := read(dictPath), read(deltaPath)
	if len(fullDict) == len(preDict) {
		t.Fatal("a batch of new values appended no DICT frame")
	}

	// torn returns full cut at every byte past pre, and full with every
	// byte past pre flipped.
	torn := func(pre, full []byte) [][]byte {
		var out [][]byte
		for n := len(pre); n < len(full); n++ {
			out = append(out, full[:n])
		}
		for off := len(pre); off < len(full); off++ {
			flipped := append([]byte(nil), full...)
			flipped[off] ^= 1 << (off % 8)
			out = append(out, flipped)
		}
		return out
	}
	next := Tuple{Int(903), Str("salsa")}
	// appendNext appends next (a new value) at version 3 after a reopen
	// with engine and returns the DICT and delta sizes it leaves.
	appendNext := func(engine Engine) [2]int {
		t.Helper()
		db, h, err := OpenDir(dir, engine)
		if err != nil {
			t.Fatal(err)
		}
		if err := mutateDir(db, h, "baskets", []Tuple{next}, 3); err != nil {
			t.Fatal(err)
		}
		return [2]int{len(read(dictPath)), len(read(deltaPath))}
	}
	for _, kind := range []struct {
		what        string
		dict, delta [][]byte
	}{
		{"delta batch", nil, torn(preDelta, fullDelta)},
		{"DICT frame", torn(preDict, fullDict), nil},
	} {
		// The untorn state of each sweep: the delta batch's DICT frame
		// is intact; the DICT frame has no batch after it.
		cleanDict := fullDict
		if kind.dict != nil {
			cleanDict = preDict
		}
		restore(cleanDict, preDelta)
		clean := appendNext(EngineDisk)
		cases := len(kind.dict) + len(kind.delta)
		for i := 0; i < cases; i++ {
			dict, delta := cleanDict, preDelta
			if kind.dict != nil {
				dict = kind.dict[i]
			} else {
				delta = kind.delta[i]
			}
			restore(dict, delta)
			for _, e := range engines {
				rows, version, err := openScan(dir, e)
				if err != nil {
					t.Fatalf("%s case %d, %v engine: %v", kind.what, i, e, err)
				}
				if version != 2 || !reflect.DeepEqual(rows, before[e]) {
					t.Fatalf("%s case %d, %v engine: version %d, rows differ from the state before the torn frame", kind.what, i, e, version)
				}
			}
			if sizes := appendNext(engines[i%2]); sizes != clean {
				t.Fatalf("%s case %d: the append left DICT and delta of %v bytes, want %v (the torn tail cut off)", kind.what, i, sizes, clean)
			}
			for _, e := range engines {
				rows, version, err := openScan(dir, e)
				if err != nil {
					t.Fatalf("%s case %d, %v engine after the next append: %v", kind.what, i, e, err)
				}
				got := rows["baskets"]
				want := append(append([]Tuple(nil), before[e]["baskets"]...), next)
				if version != 3 || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s case %d, %v engine after the next append: version %d, %d rows, want the %d before plus %v",
						kind.what, i, e, version, len(got), len(before[e]["baskets"]), next)
				}
			}
		}
	}

	corrupt := append([]byte(nil), fullDelta...)
	corrupt[len(deltaMagic)+13] ^= 1 // inside the first, non-final batch
	restore(fullDict, corrupt)
	for _, e := range engines {
		if _, _, err := OpenDir(dir, e); err == nil || !strings.Contains(err.Error(), deltaPath) {
			t.Fatalf("%v engine: a corrupt non-final batch gave %v, want an error naming %s", e, err, deltaPath)
		}
	}

	// A batch whose CRC holds but whose ID the DICT lacks: outside input,
	// not a torn write.
	body := binary.LittleEndian.AppendUint64(nil, 4)
	body = binary.LittleEndian.AppendUint32(body, 1)
	body = binary.LittleEndian.AppendUint32(body, 1)
	body = binary.LittleEndian.AppendUint32(body, uint32(mustDict(t, db).Len()+5))
	restore(fullDict, appendFrame(append([]byte(nil), fullDelta...), body))
	for _, e := range engines {
		if _, _, err := OpenDir(dir, e); err == nil || !strings.Contains(err.Error(), deltaPath) {
			t.Fatalf("%v engine: a batch naming an ID past the DICT gave %v, want an error naming %s", e, err, deltaPath)
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
	old := strings.Replace(string(raw), `"format": 3`, `"format": 2`, 1)
	if old == string(raw) {
		t.Fatal("catalog does not record format 3")
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{EngineMemory, EngineDisk} {
		_, _, err := OpenDir(dir, e)
		if err == nil || !strings.Contains(err.Error(), "flockgen -data-dir") || !strings.Contains(err.Error(), "storage.CreateDir") {
			t.Fatalf("%v engine: format 2 gave %v, want an error naming the migration", e, err)
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
