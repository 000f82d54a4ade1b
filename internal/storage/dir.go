package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// Data-directory layout — the canonical persistent format both engines
// open:
//
//	CATALOG.json   relation schemas, row counts, per-column group-size
//	               histograms, and the data version at ingest
//	DICT           the interned value dictionary, in ID order
//	<name>.seg     one sorted segment per relation (see segment.go)
//	<name>.delta   append-only post-ingest batches (see below), optional
//
// The memory engine materializes segments + deltas into *Relation at open
// (in segment order, then delta order); the disk engine serves them via
// DiskRelation. Because both read the same files in the same order, the
// two engines present identical iteration order — the property the
// bit-identical evaluation oracle rests on.
const (
	catalogFile = "CATALOG.json"
	dictFile    = "DICT"
	segExt      = ".seg"
	deltaExt    = ".delta"

	dictMagic  = "QFDICT1\n"
	deltaMagic = "QFDELTA\n"
)

type histBucket struct {
	Size  int `json:"size"`
	Count int `json:"count"`
}

type dirRelation struct {
	Name       string                  `json:"name"`
	Columns    []string                `json:"columns"`
	Rows       int                     `json:"rows"`
	Histograms map[string][]histBucket `json:"histograms,omitempty"`
}

type dirCatalog struct {
	Format    int           `json:"format"`
	Version   uint64        `json:"version"`
	Relations []dirRelation `json:"relations"`
}

// Dir is the handle to an opened (or created) data directory: the mutate
// path appends delta batches through it, and the serving layer stores
// sidecar state (prepared flocks) under Path.
type Dir struct {
	path   string
	engine Engine
	io     *IOStats
	arity  map[string]int
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// Engine returns the engine the directory was opened with.
func (d *Dir) Engine() Engine { return d.engine }

// IO returns the directory's I/O counters (never nil).
func (d *Dir) IO() *IOStats { return d.io }

// CreateDir ingests db into a fresh data directory: one sorted segment
// per relation, exact per-column group-size histograms in the catalog,
// and the interned dictionary. Existing segment/catalog files are
// overwritten; delta files are removed (the ingested state is the new
// base).
func CreateDir(dir string, db *Database) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cat := dirCatalog{Format: 1, Version: db.Version()}
	for _, name := range db.Names() {
		rel, err := db.Relation(name)
		if err != nil {
			return err
		}
		sorted := sortedBySortKey(rel.Tuples())
		if err := writeSegment(filepath.Join(dir, name+segExt), name, rel.Columns(), sorted); err != nil {
			return err
		}
		if err := os.Remove(filepath.Join(dir, name+deltaExt)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		hists := make(map[string][]histBucket, rel.Arity())
		for _, col := range rel.Columns() {
			sizes, err := rel.GroupSizes(col)
			if err != nil {
				return err
			}
			hists[col] = bucketize(sizes)
		}
		cat.Relations = append(cat.Relations, dirRelation{
			Name:       name,
			Columns:    rel.Columns(),
			Rows:       rel.Len(),
			Histograms: hists,
		})
	}
	dict, err := db.Dict()
	if err != nil {
		return err
	}
	if err := writeDict(filepath.Join(dir, dictFile), dict); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(cat, "", "  ")
	if err != nil {
		return err
	}
	// The catalog is the publish point of the whole ingest: it, the
	// segments and dictionary it references (synced by their writers),
	// and all the fresh directory entries must be durable before
	// CreateDir acknowledges. WriteFileSync fsyncs the file and then the
	// directory, which persists every entry created above.
	return WriteFileSync(filepath.Join(dir, catalogFile), append(raw, '\n'), 0o644)
}

// bucketize compresses a group-size multiset into sorted (size, count)
// buckets — lossless for statistics (the sizes themselves, not which
// group has which size, are what the planner consumes).
func bucketize(sizes []int) []histBucket {
	counts := make(map[int]int)
	for _, s := range sizes {
		counts[s]++
	}
	out := make([]histBucket, 0, len(counts))
	for s, c := range counts {
		out = append(out, histBucket{Size: s, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

func unbucketize(buckets []histBucket) []int {
	n := 0
	for _, b := range buckets {
		n += b.Count
	}
	out := make([]int, 0, n)
	for _, b := range buckets {
		for i := 0; i < b.Count; i++ {
			out = append(out, b.Size)
		}
	}
	return out
}

// OpenDir opens a data directory with the given engine and returns the
// database plus the directory handle for subsequent delta appends.
func OpenDir(dir string, engine Engine) (*Database, *Dir, error) {
	raw, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if err != nil {
		return nil, nil, fmt.Errorf("storage: opening data dir %s: %w", dir, err)
	}
	var cat dirCatalog
	if err := json.Unmarshal(raw, &cat); err != nil {
		return nil, nil, fmt.Errorf("storage: bad catalog in %s: %w", dir, err)
	}
	stats := &IOStats{}
	db := NewDatabase()
	db.SetIO(stats)
	version := cat.Version
	anyDelta := false
	handle := &Dir{path: dir, engine: engine, io: stats, arity: make(map[string]int)}

	for _, rc := range cat.Relations {
		handle.arity[rc.Name] = len(rc.Columns)
		deltaRows, deltaVersion, err := readDelta(filepath.Join(dir, rc.Name+deltaExt), len(rc.Columns))
		if err != nil {
			return nil, nil, err
		}
		if deltaVersion > version {
			version = deltaVersion
		}
		if len(deltaRows) > 0 {
			anyDelta = true
		}
		switch engine {
		case EngineDisk:
			sr, err := openSegment(filepath.Join(dir, rc.Name+segExt), stats)
			if err != nil {
				return nil, nil, err
			}
			drel := &DiskRelation{
				seg:       sr,
				name:      rc.Name,
				cols:      rc.Columns,
				io:        stats,
				delta:     deltaRows,
				deltaSeen: make(map[string]struct{}, len(deltaRows)),
				hist:      make(map[string][]int, len(rc.Histograms)),
			}
			var buf []byte
			for _, t := range deltaRows {
				buf = t.AppendKey(buf[:0])
				drel.deltaSeen[string(buf)] = struct{}{}
			}
			for col, buckets := range rc.Histograms {
				drel.hist[col] = unbucketize(buckets)
			}
			db.AddSource(drel)
		default:
			rel := NewRelation(rc.Name, rc.Columns...)
			sr, err := openSegment(filepath.Join(dir, rc.Name+segExt), stats)
			if err != nil {
				return nil, nil, err
			}
			it := sr.scan()
			for {
				batch, err := it.Next(1024)
				if err != nil {
					sr.close()
					return nil, nil, err
				}
				if batch == nil {
					break
				}
				for _, t := range batch {
					rel.Insert(t)
				}
			}
			if err := sr.close(); err != nil {
				return nil, nil, err
			}
			for _, t := range deltaRows {
				rel.Insert(t)
			}
			db.Add(rel)
		}
	}
	db.SetVersion(version)

	// The persisted dictionary matches the base segments exactly. The disk
	// engine always starts from it (its column builds then intern base
	// values as hits and append only what a delta introduced); with a
	// delta present the memory engine rebuilds lazily instead so delta
	// values intern order-preserved.
	if engine == EngineDisk || !anyDelta {
		if d, err := readDictFile(filepath.Join(dir, dictFile)); err == nil && d != nil {
			db.seedDict(d)
		} else if err != nil {
			return nil, nil, err
		}
	}
	return db, handle, nil
}

// AppendDelta durably appends one mutation batch for the named relation:
// the rows land in <name>.delta stamped with the post-mutation data
// version, and are merged back at the next OpenDir (either engine) or by
// the DiskRelation views already holding them.
func (d *Dir) AppendDelta(rel string, rows []Tuple, version uint64) error {
	if len(rows) == 0 {
		return nil
	}
	if arity, ok := d.arity[rel]; ok {
		for _, t := range rows {
			if len(t) != arity {
				return fmt.Errorf("storage: arity mismatch appending %d-tuple to %q(%d cols)", len(t), rel, arity)
			}
		}
	}
	path := filepath.Join(d.path, rel+deltaExt)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if fi.Size() == 0 {
		if _, err := w.WriteString(deltaMagic); err != nil {
			return err
		}
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(rows)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	var payload []byte
	for _, t := range rows {
		payload = t.AppendPayload(payload[:0])
		if _, err := w.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(payload)))]); err != nil {
			return err
		}
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	// A freshly created delta file is only durable once its directory
	// entry is: fsync(file) persists the bytes, but a crash before the
	// directory itself reaches disk loses the *name*, and with it the
	// whole acknowledged batch. Existing files skip this — their entry
	// already survived an earlier sync.
	if fi.Size() == 0 {
		return fsyncDir(d.path)
	}
	return nil
}

// fsyncDir syncs a directory so a newly created entry in it survives a
// crash. It is a seam (package variable) so the durability tests can
// observe the call without pulling the power for real.
var fsyncDir = func(path string) error {
	dir, err := os.Open(path)
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// SyncDir fsyncs a directory so a freshly created or renamed entry in it
// survives a crash. Sidecar writers outside this package (the serving
// layer's prepared-flock snapshot) use it after an atomic rename.
func SyncDir(path string) error { return fsyncDir(path) }

// WriteFileSync is os.WriteFile with durability: the bytes are fsynced
// before close and the parent directory after, so neither the content
// nor the entry can be lost to a crash once the call returns. Publish
// points (the ingest catalog, serving-layer sidecars) go through this.
func WriteFileSync(path string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsyncDir(filepath.Dir(path))
}

// readDelta loads every batch of a delta file; a missing file is an empty
// delta. Returns the rows in append order and the highest batch version.
func readDelta(path string, arity int) ([]Tuple, uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	magic := make([]byte, len(deltaMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, 0, fmt.Errorf("storage: delta %s: %w", path, err)
	}
	if string(magic) != deltaMagic {
		return nil, 0, fmt.Errorf("storage: delta %s: bad magic %q", path, magic)
	}
	var rows []Tuple
	var version uint64
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err == io.EOF {
			return rows, version, nil
		} else if err != nil {
			return nil, 0, fmt.Errorf("storage: delta %s: %w", path, err)
		}
		if v := binary.LittleEndian.Uint64(hdr[:8]); v > version {
			version = v
		}
		count := binary.LittleEndian.Uint32(hdr[8:])
		var payload []byte
		for i := uint32(0); i < count; i++ {
			n, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, 0, fmt.Errorf("storage: delta %s: %w", path, err)
			}
			payload = readInto(payload, int(n))
			if _, err := io.ReadFull(r, payload); err != nil {
				return nil, 0, fmt.Errorf("storage: delta %s: %w", path, err)
			}
			t, err := DecodePayloadTuple(payload, arity)
			if err != nil {
				return nil, 0, fmt.Errorf("storage: delta %s: %w", path, err)
			}
			rows = append(rows, t)
		}
	}
}

// writeDict persists the dictionary: values in ID order (null implied at
// 0) plus the order-exact prefix length, which readDictFile does not
// trust but re-derives from the values.
func writeDict(path string, d *Dict) error {
	vals, exactLen := d.snapshotValues()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(dictMagic); err != nil {
		f.Close()
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	if _, err := w.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(vals)))]); err != nil {
		f.Close()
		return err
	}
	if _, err := w.Write(scratch[:binary.PutUvarint(scratch[:], uint64(exactLen))]); err != nil {
		f.Close()
		return err
	}
	var payload []byte
	for _, v := range vals[1:] { // skip the implied null at ID 0
		payload = v.AppendPayload(payload[:0])
		if _, err := w.Write(payload); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readDictFile loads a persisted dictionary; a missing file yields
// (nil, nil) so callers fall back to the lazy build.
func readDictFile(path string) (*Dict, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(raw) < len(dictMagic) || string(raw[:len(dictMagic)]) != dictMagic {
		return nil, fmt.Errorf("storage: dict %s: bad magic", path)
	}
	b := raw[len(dictMagic):]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("storage: dict %s: truncated", path)
	}
	b = b[n:]
	if _, n = binary.Uvarint(b); n <= 0 { // the persisted order-exact length
		return nil, fmt.Errorf("storage: dict %s: truncated", path)
	}
	b = b[n:]
	vals := make([]Value, 1, count)
	vals[0] = Null()
	for uint64(len(vals)) < count {
		var v Value
		if v, b, err = DecodePayloadValue(b); err != nil {
			return nil, fmt.Errorf("storage: dict %s: %w", path, err)
		}
		vals = append(vals, v)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("storage: dict %s: %d trailing bytes", path, len(b))
	}
	return newDictFromValues(vals), nil
}
