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
//	CATALOG.json   format 3: relation schemas, row counts, per-column
//	               group-size histograms, and the data version at ingest
//	DICT           the interned value dictionary in ID order: a frame log
//	               (see appendFrame) of a base frame, then one append frame
//	               per mutation that interned new values
//	<name>.cols    the relation's base rows as ID columns against DICT,
//	               in ID-tuple order (see colfile.go)
//	<name>.delta   a frame log of post-ingest batches of ID rows against
//	               DICT (see AppendDelta), optional
//
// Every byte a reader trusts is covered by a CRC: a corrupt file is an
// error, never a different row set, and only the final frame of a frame
// log may be dropped, as never acknowledged. A stored value, base or
// delta, reads back as its dictionary class's representative
// (Dict.Value), which is what every executor answer decodes to anyway.
// Both engines take every ID of the column and delta files as it is: the
// memory engine reads every column file at open into a *Relation over the
// persisted DICT and inserts the delta rows after; the disk engine serves
// the same IDs via DiskRelation from first touch. Both present base rows
// in column-file order, then delta rows in append order — the order the
// bit-identical evaluation oracle rests on.
const (
	catalogFile = "CATALOG.json"
	dictFile    = "DICT"
	colExt      = ".cols"
	deltaExt    = ".delta"
	dirFormat   = 3

	dictMagic  = "QFDICT3\n"
	deltaMagic = "QFDELT3\n"
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
// the handle remembers where each frame log's last good frame ends and
// how many of its dictionary's values DICT holds.
type Dir struct {
	path    string
	io      *IOStats
	dict    *Dict    // the database's dictionary, which DICT persists
	dictLog frameLog // DICT's append end
	dictLen int      // values DICT holds, null included
	rels    map[string]*dirRel
}

// dirRel is what a Dir knows of one catalog relation.
type dirRel struct {
	arity int
	delta frameLog
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

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
// engines start from the persisted dictionary and take the delta files'
// ID rows as they are: nothing is decoded or re-interned. The disk engine
// validates each column file's header here and reads its columns at first
// touch; the memory engine reads them all now.
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
	dictPath := filepath.Join(dir, dictFile)
	dict, dictEnd, err := readDictFile(dictPath)
	if err != nil {
		return nil, nil, err
	}
	stats := &IOStats{}
	db := NewDatabase()
	db.SetIO(stats)
	version := cat.Version
	handle := &Dir{
		path:    dir,
		io:      stats,
		dict:    dict,
		dictLog: frameLog{path: dictPath, magic: dictMagic, end: dictEnd},
		dictLen: dict.Len(),
		rels:    make(map[string]*dirRel),
	}

	for _, rc := range cat.Relations {
		arity := len(rc.Columns)
		path := filepath.Join(dir, rc.Name+colExt)
		stats.addSegmentOpened()
		var delta *Relation // the relation the delta rows go into
		switch engine {
		case EngineDisk:
			if err := openColumnFile(path, rc.Name, rc.Rows, arity); err != nil {
				return nil, nil, err
			}
			drel := &DiskRelation{
				schema: schema{rc.Name, rc.Columns},
				path:   path,
				rows:   rc.Rows,
				dict:   dict,
				io:     stats,
				delta:  NewRelationIn(dict, rc.Name, rc.Columns...),
				hist:   make(map[string][]int, len(rc.Histograms)),
			}
			drel.src = drel
			for col, buckets := range rc.Histograms {
				drel.hist[col] = unbucketize(buckets)
			}
			db.AddSource(drel)
			delta = drel.delta
		default:
			cols, err := loadColumnFile(path, rc.Name, rc.Rows, arity, dict.Len(), nil, stats)
			if err != nil {
				return nil, nil, err
			}
			rel := newRelationFromColumns(dict, rc.Name, rc.Columns, cols, rc.Rows)
			db.Add(rel)
			delta = rel
		}
		deltaPath := filepath.Join(dir, rc.Name+deltaExt)
		deltaVersion, deltaEnd, err := readDelta(deltaPath, delta)
		if err != nil {
			return nil, nil, err
		}
		handle.rels[rc.Name] = &dirRel{arity: arity, delta: frameLog{path: deltaPath, magic: deltaMagic, end: deltaEnd}}
		version = max(version, deltaVersion)
	}
	db.SetVersion(version)
	db.seedDict(dict)
	return db, handle, nil
}

// AppendDelta durably appends one mutation batch for the named relation:
// rows are IDs of the directory's dictionary (as WithDelta returns them),
// and land in <name>.delta as one frame,
//
//	version u64 | count u32 | count × arity u32 IDs, row-major
//
// stamped with the post-mutation data version. First the values the
// persisted DICT lacks are appended and fsynced as one DICT frame (a run
// of exact value payloads in ID order, as CreateDir's base frame is), so
// an acknowledged batch never names an ID the DICT cannot decode; a crash
// between the two fsyncs leaves DICT entries nothing references. The
// caller publishes only after it returns.
func (d *Dir) AppendDelta(rel string, rows [][]uint32, version uint64) error {
	if len(rows) == 0 {
		return nil
	}
	dr, ok := d.rels[rel]
	if !ok {
		return fmt.Errorf("storage: no relation %q in data dir %s", rel, d.path)
	}
	view := d.dict.View()
	body := binary.LittleEndian.AppendUint64(nil, version)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(rows)))
	for _, row := range rows {
		if len(row) != dr.arity {
			return fmt.Errorf("storage: arity mismatch appending %d-tuple to %q(%d cols)", len(row), rel, dr.arity)
		}
		for _, id := range row {
			if int(id) >= view.Len() {
				return fmt.Errorf("storage: appending ID %d to %q: the dictionary has %d values", id, rel, view.Len())
			}
			body = binary.LittleEndian.AppendUint32(body, id)
		}
	}
	if view.Len() > d.dictLen {
		if err := d.dictLog.append(appendValues(nil, view.vals[d.dictLen:])); err != nil {
			return err
		}
		d.dictLen = view.Len()
	}
	return dr.delta.append(body)
}

// Frame logs: DICT and the delta files are each a magic string, then one
// frame per append:
//
//	n u32 | body (n bytes) | n u32 | CRC-32C u32 of the 8+n bytes before it
//
// The leading length walks the frames forward, the trailing one finds the
// last frame from the end of the file. A writer acknowledges a frame only
// after its fsync, so a final frame that is short or fails its CRC was
// never acknowledged and is dropped; a bad frame with an intact one after
// it is corruption, an error.
const frameOverhead = 12

func appendFrame(b, body []byte) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	b = append(b, body...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	return appendCRC(b, start)
}

// frameEnd verifies the frame at off and returns where it ends.
func frameEnd(raw []byte, off int) (int, bool) {
	if off < 0 || len(raw)-off < frameOverhead {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(raw[off:]))
	if n > len(raw)-off-frameOverhead {
		return 0, false
	}
	end := off + n + frameOverhead
	return end, binary.LittleEndian.Uint32(raw[end-8:]) == uint32(n) &&
		crc32.Checksum(raw[off:end-4], castagnoli) == binary.LittleEndian.Uint32(raw[end-4:])
}

// parseFrames returns the bodies (aliasing raw) of a frame log's intact
// frames and the offset where the last of them ends: 0 for a file torn
// while it was created, a proper prefix of the magic.
func parseFrames(raw []byte, magic string) ([][]byte, int, error) {
	if len(raw) < len(magic) && string(raw) == magic[:len(raw)] {
		return nil, 0, nil
	}
	if len(raw) < len(magic) || string(raw[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("bad magic")
	}
	var frames [][]byte
	off := len(magic)
	for off < len(raw) {
		end, ok := frameEnd(raw, off)
		if !ok {
			// Corruption, unless no intact frame starts after off.
			if len(raw)-off > frameOverhead {
				last := len(raw) - frameOverhead - int(binary.LittleEndian.Uint32(raw[len(raw)-8:]))
				if end, ok := frameEnd(raw, last); ok && last > off && end == len(raw) {
					return nil, 0, fmt.Errorf("the frame at byte %d fails its checksum", off)
				}
			}
			break
		}
		frames = append(frames, raw[off+4:end-8])
		off = end
	}
	return frames, off, nil
}

// frameLog is the append end of one frame log; its one writer remembers
// where the last good frame ends (0 when the file has none).
type frameLog struct {
	path, magic string
	end         int64
}

// append durably appends body as one frame, first cutting off a torn tail
// left by an append that never returned. It returns after the fsync that
// makes both durable and, for a file it creates, the directory's: until
// the entry is durable a crash can lose the file's name with the
// acknowledged frame.
func (l *frameLog) append(body []byte) error {
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(l.end); err != nil {
		return err
	}
	var b []byte
	fresh := l.end == 0
	if fresh {
		b = append(b, l.magic...)
	}
	b = appendFrame(b, body)
	if _, err := f.WriteAt(b, l.end); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	l.end += int64(len(b))
	if fresh {
		return fsyncDir(filepath.Dir(l.path))
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

// readDelta inserts a delta file's intact batches into rel, a relation in
// the persisted dictionary (see insertDelta); a missing file is an empty
// delta. It returns the highest batch version and the offset where the
// last good batch ends.
func readDelta(path string, rel *Relation) (uint64, int64, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	var version uint64
	frames, end, err := parseFrames(raw, deltaMagic)
	if err == nil {
		version, err = insertDelta(rel, frames)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("storage: delta %s: %w", path, err)
	}
	return version, int64(end), nil
}

// insertDelta inserts the rows of delta batches into rel, taking the IDs
// as they are, and returns the highest batch version. A CRC-intact batch
// that is malformed or names an ID past rel's dictionary is an error: the
// CRC guards against torn writes, not against outside input.
func insertDelta(rel *Relation, batches [][]byte) (uint64, error) {
	arity, dictLen := rel.Arity(), rel.dict.Len()
	var version uint64
	row := make([]uint32, arity)
	for _, b := range batches {
		if len(b) < 12 {
			return 0, fmt.Errorf("a %d-byte batch", len(b))
		}
		count := int(binary.LittleEndian.Uint32(b[8:]))
		ids := b[12:]
		if len(ids) != 4*arity*count || arity == 0 && count > 1 {
			return 0, fmt.Errorf("a batch of %d bytes does not hold %d rows of arity %d", len(b), count, arity)
		}
		version = max(version, binary.LittleEndian.Uint64(b))
		for i := 0; i < count; i++ {
			for j := range row {
				row[j] = binary.LittleEndian.Uint32(ids[4*(i*arity+j):])
				if int(row[j]) >= dictLen {
					return 0, fmt.Errorf("ID %d is past the DICT's %d values", row[j], dictLen)
				}
			}
			rel.InsertIDs(row)
		}
	}
	return version, nil
}

// appendValues appends the exact payload of every value of vals to b.
func appendValues(b []byte, vals []Value) []byte {
	for _, v := range vals {
		b = v.AppendPayload(b)
	}
	return b
}

// writeDict persists the dictionary as one base frame: its values in ID
// order from 1 (the null at 0 is implied). The order-exact prefix is not
// stored; readDictFile re-derives it from the values.
func writeDict(path string, d *Dict) error {
	vals := d.View().vals
	return syncFile(path, appendFrame([]byte(dictMagic), appendValues(nil, vals[1:])), 0o644)
}

// readDictFile loads and verifies a persisted dictionary (see
// dictFromFrames) and returns it with the offset where its last good
// frame ends.
func readDictFile(path string) (*Dict, int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: dict: %w", err)
	}
	var d *Dict
	frames, end, err := parseFrames(raw, dictMagic)
	if err == nil {
		d, err = dictFromFrames(frames)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("storage: dict %s: %w", path, err)
	}
	return d, int64(end), nil
}

// dictFromFrames decodes DICT frames: the base frame, which must be
// there, and the append frames after it. The order-exact prefix is
// re-derived from the base frame's values, so appended IDs lie past it,
// as they did when they were interned.
func dictFromFrames(frames [][]byte) (*Dict, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("no intact base frame")
	}
	// Count the values first, so the slice is allocated once; a malformed
	// payload ends the count, and the decode below reports it.
	n := 1
	for _, b := range frames {
		for size, err := payloadLen(b); err == nil; size, err = payloadLen(b) {
			b, n = b[size:], n+1
		}
	}
	vals := append(make([]Value, 0, n), Null())
	base := 0
	for _, b := range frames {
		for len(b) > 0 {
			v, rest, err := DecodePayloadValue(b)
			if err != nil {
				return nil, err
			}
			vals, b = append(vals, v), rest
		}
		if base == 0 {
			base = len(vals)
		}
	}
	return newDictFromValues(vals, base), nil
}
