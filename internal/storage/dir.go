package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// Data-directory layout — the canonical persistent format both engines
// open:
//
//	CATALOG.json   format 2: relation schemas, row counts, per-column
//	               group-size histograms, and the data version at ingest
//	DICT           the interned value dictionary, in ID order, CRC-32C
//	               trailer
//	<name>.cols    the relation's base rows as ID columns against DICT,
//	               in ID-tuple order (see colfile.go)
//	<name>.delta   append-only post-ingest batches, each with a CRC-32C
//	               trailer (see AppendDelta), optional
//
// Every byte a reader trusts is covered by a CRC: a corrupt file is an
// error, never a different row set. A stored value, base or delta, reads
// back as its dictionary class's representative (Dict.Value), which is
// what every executor answer decodes to anyway. The memory engine reads
// every column file at open into a *Relation over the persisted DICT,
// taking the IDs as they are, and interns the delta rows on top; the disk
// engine serves the same IDs via DiskRelation from first touch. Both
// present base rows in column-file order, then delta rows in append order
// — the order the bit-identical evaluation oracle rests on.
const (
	catalogFile = "CATALOG.json"
	dictFile    = "DICT"
	colExt      = ".cols"
	deltaExt    = ".delta"
	dirFormat   = 2

	dictMagic  = "QFDICT2\n"
	deltaMagic = "QFDELT2\n"
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
// sidecar state (prepared flocks) under Path. A directory has one writer:
// the handle remembers where each delta file's last good batch ends.
type Dir struct {
	path   string
	engine Engine
	io     *IOStats
	rels   map[string]*dirRel
}

// dirRel is what a Dir knows of one catalog relation.
type dirRel struct {
	arity    int
	deltaEnd int64 // end of the last good delta batch; 0 when there is none
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// Engine returns the engine the directory was opened with.
func (d *Dir) Engine() Engine { return d.engine }

// IO returns the directory's I/O counters (never nil).
func (d *Dir) IO() *IOStats { return d.io }

// CreateDir ingests db into a fresh data directory: the dictionary, one
// column file per relation in ID-tuple order, and exact per-column
// group-size histograms in the catalog. Existing files are overwritten;
// delta files are removed (the ingested state is the new base). This is
// also the one-way migration from older formats.
func CreateDir(dir string, db *Database) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dict, err := db.Dict()
	if err != nil {
		return err
	}
	cat := dirCatalog{Format: dirFormat, Version: db.Version()}
	for _, name := range db.Names() {
		rel, err := db.Relation(name)
		if err != nil {
			return err
		}
		cols, err := sortedIDColumns(rel, dict)
		if err != nil {
			return err
		}
		if err := syncFile(filepath.Join(dir, name+colExt), appendColumnFile(nil, rel.Len(), cols), 0o644); err != nil {
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
	// Written after the column builds, which intern any value the
	// dictionary had not yet seen.
	if err := writeDict(filepath.Join(dir, dictFile), dict); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(cat, "", "  ")
	if err != nil {
		return err
	}
	// The catalog is the publish point of the whole ingest: it, the
	// column files and dictionary it references (synced by their
	// writers), and all the fresh directory entries must be durable
	// before CreateDir acknowledges. WriteFileSync fsyncs the file and
	// then the directory, which persists every entry created above.
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
// database plus the directory handle for subsequent delta appends. Both
// engines start from the persisted dictionary, and delta values intern on
// top of it, past its order-exact prefix. The disk engine validates each
// column file's header here and reads its columns at first touch; the
// memory engine reads them all now.
func OpenDir(dir string, engine Engine) (*Database, *Dir, error) {
	raw, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if err != nil {
		return nil, nil, fmt.Errorf("storage: opening data dir %s: %w", dir, err)
	}
	var cat dirCatalog
	if err := json.Unmarshal(raw, &cat); err != nil {
		return nil, nil, fmt.Errorf("storage: bad catalog in %s: %w", dir, err)
	}
	if cat.Format != dirFormat {
		return nil, nil, fmt.Errorf("storage: data dir %s has format %d, this build reads format %d: "+
			"re-create it from the source data with flockgen -data-dir or storage.CreateDir", dir, cat.Format, dirFormat)
	}
	dict, err := readDictFile(filepath.Join(dir, dictFile))
	if err != nil {
		return nil, nil, err
	}
	stats := &IOStats{}
	db := NewDatabase()
	db.SetIO(stats)
	version := cat.Version
	handle := &Dir{path: dir, engine: engine, io: stats, rels: make(map[string]*dirRel)}

	for _, rc := range cat.Relations {
		arity := len(rc.Columns)
		deltaRows, deltaVersion, deltaEnd, err := readDelta(filepath.Join(dir, rc.Name+deltaExt), arity)
		if err != nil {
			return nil, nil, err
		}
		handle.rels[rc.Name] = &dirRel{arity: arity, deltaEnd: deltaEnd}
		version = max(version, deltaVersion)
		path := filepath.Join(dir, rc.Name+colExt)
		stats.addSegmentOpened()
		switch engine {
		case EngineDisk:
			if err := openColumnFile(path, rc.Name, rc.Rows, arity); err != nil {
				return nil, nil, err
			}
			drel := &DiskRelation{
				path:      path,
				name:      rc.Name,
				cols:      rc.Columns,
				rows:      rc.Rows,
				dict:      dict,
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
			cols, err := loadColumnFile(path, rc.Name, rc.Rows, arity, dict.Len(), nil, stats)
			if err != nil {
				return nil, nil, err
			}
			rel := newRelationFromColumns(dict, rc.Name, rc.Columns, cols, rc.Rows)
			for _, t := range deltaRows {
				rel.Insert(t)
			}
			db.Add(rel)
		}
	}
	db.SetVersion(version)
	db.seedDict(dict)
	return db, handle, nil
}

// Delta file format: deltaMagic, then one batch per AppendDelta call:
//
//	version u64 | count u32 | count × (uvarint length, Tuple.AppendPayload)
//	| n u32 | CRC-32C u32
//
// n is the batch's byte length before it and the CRC covers the batch up
// to and including n, so the last batch of a file can be found and
// verified from its end.

// AppendDelta durably appends one mutation batch for the named relation:
// the rows land in <name>.delta stamped with the post-mutation data
// version, and are merged back at the next OpenDir (either engine) or by
// the DiskRelation views already holding them. A torn tail left by an
// append that never returned is cut off first.
func (d *Dir) AppendDelta(rel string, rows []Tuple, version uint64) error {
	if len(rows) == 0 {
		return nil
	}
	dr, ok := d.rels[rel]
	if !ok {
		return fmt.Errorf("storage: no relation %q in data dir %s", rel, d.path)
	}
	for _, t := range rows {
		if len(t) != dr.arity {
			return fmt.Errorf("storage: arity mismatch appending %d-tuple to %q(%d cols)", len(t), rel, dr.arity)
		}
	}
	f, err := os.OpenFile(filepath.Join(d.path, rel+deltaExt), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() != dr.deltaEnd {
		if err := f.Truncate(dr.deltaEnd); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
	}
	var b []byte
	if dr.deltaEnd == 0 {
		b = append(b, deltaMagic...)
	}
	start := len(b)
	b = binary.LittleEndian.AppendUint64(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	var payload []byte
	for _, t := range rows {
		payload = t.AppendPayload(payload[:0])
		b = binary.AppendUvarint(b, uint64(len(payload)))
		b = append(b, payload...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(b)-start))
	b = appendCRC(b, start)
	if _, err := f.WriteAt(b, dr.deltaEnd); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	fresh := dr.deltaEnd == 0
	dr.deltaEnd += int64(len(b))
	// A freshly created delta file is only durable once its directory
	// entry is: fsync(file) persists the bytes, but a crash before the
	// directory itself reaches disk loses the *name*, and with it the
	// whole acknowledged batch. Existing files skip this — their entry
	// already survived an earlier sync.
	if fresh {
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
	if err := syncFile(path, data, perm); err != nil {
		return err
	}
	return fsyncDir(filepath.Dir(path))
}

// syncFile writes data to path and fsyncs it before close.
func syncFile(path string, data []byte, perm os.FileMode) error {
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
	return f.Close()
}

// readDelta loads every batch of a delta file; a missing file is an empty
// delta. It returns the rows in append order, the highest batch version,
// and the offset where the last good batch ends. A final batch that is
// short or fails its CRC was never acknowledged (AppendDelta returns only
// after the fsync) and is dropped; a bad batch with an intact one after
// it is an error naming the file.
func readDelta(path string, arity int) ([]Tuple, uint64, int64, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, err
	}
	if len(raw) < len(deltaMagic) && string(raw) == deltaMagic[:len(raw)] {
		return nil, 0, 0, nil // torn while the file was created
	}
	if len(raw) < len(deltaMagic) || string(raw[:len(deltaMagic)]) != deltaMagic {
		return nil, 0, 0, fmt.Errorf("storage: delta %s: bad magic", path)
	}
	var rows []Tuple
	var version uint64
	off := len(deltaMagic)
	for off < len(raw) {
		end, ok := deltaBatchEnd(raw, off)
		if !ok {
			if last, ok := lastDeltaBatch(raw); ok && last > off {
				return nil, 0, 0, fmt.Errorf("storage: delta %s: the batch at byte %d fails its checksum", path, off)
			}
			break
		}
		version = max(version, binary.LittleEndian.Uint64(raw[off:]))
		p := off + 12
		for i := binary.LittleEndian.Uint32(raw[off+8:]); i > 0; i-- {
			n, sz := binary.Uvarint(raw[p:])
			t, err := DecodePayloadTuple(raw[p+sz:p+sz+int(n)], arity)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("storage: delta %s: %w", path, err)
			}
			rows = append(rows, t)
			p += sz + int(n)
		}
		off = end
	}
	return rows, version, int64(off), nil
}

// deltaBatchEnd frames the delta batch at off and verifies its length and
// CRC, returning where it ends.
func deltaBatchEnd(raw []byte, off int) (int, bool) {
	p := off + 12
	if p > len(raw) {
		return 0, false
	}
	for i := binary.LittleEndian.Uint32(raw[off+8:]); i > 0; i-- {
		n, sz := binary.Uvarint(raw[p:])
		if sz <= 0 || n > uint64(len(raw)-p-sz) {
			return 0, false
		}
		p += sz + int(n)
	}
	if p+8 > len(raw) || int(binary.LittleEndian.Uint32(raw[p:])) != p-off ||
		crc32.Checksum(raw[off:p+4], castagnoli) != binary.LittleEndian.Uint32(raw[p+4:]) {
		return 0, false
	}
	return p + 8, true
}

// lastDeltaBatch finds the file's last batch from its end: the offset it
// starts at, if its trailer's length and CRC check out.
func lastDeltaBatch(raw []byte) (int, bool) {
	p := len(raw) - 8
	if p < len(deltaMagic) {
		return 0, false
	}
	start := p - int(binary.LittleEndian.Uint32(raw[p:]))
	if start < len(deltaMagic) || crc32.Checksum(raw[start:p+4], castagnoli) != binary.LittleEndian.Uint32(raw[p+4:]) {
		return 0, false
	}
	return start, true
}

// writeDict persists the dictionary: its values in ID order (null implied
// at 0), then a CRC-32C of everything before it. The order-exact prefix
// is not stored; readDictFile re-derives it from the values.
func writeDict(path string, d *Dict) error {
	vals := d.snapshotValues()
	b := append([]byte(dictMagic), binary.AppendUvarint(nil, uint64(len(vals)))...)
	for _, v := range vals[1:] { // skip the implied null at ID 0
		b = v.AppendPayload(b)
	}
	return syncFile(path, appendCRC(b, 0), 0o644)
}

// readDictFile loads and verifies a persisted dictionary.
func readDictFile(path string) (*Dict, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: dict: %w", err)
	}
	if len(raw) < len(dictMagic)+4 || string(raw[:len(dictMagic)]) != dictMagic {
		return nil, fmt.Errorf("storage: dict %s: bad magic", path)
	}
	body := raw[:len(raw)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(raw[len(body):]) {
		return nil, fmt.Errorf("storage: dict %s fails its checksum", path)
	}
	b := body[len(dictMagic):]
	count, n := binary.Uvarint(b)
	if n <= 0 || count == 0 || count > uint64(len(b)) {
		return nil, fmt.Errorf("storage: dict %s: bad value count", path)
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
