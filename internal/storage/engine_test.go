package storage

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// testDB builds a small mixed-kind database for engine round trips.
func testDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	baskets := NewRelation("baskets", "basket", "item")
	for b := 1; b <= 40; b++ {
		for i := 0; i < 1+(b%4); i++ {
			baskets.InsertValues(Int(int64(b)), Str([]string{"chips", "beer", "diapers", "salsa", "mustard"}[(b+i)%5]))
		}
	}
	db.Add(baskets)
	weights := NewRelation("weights", "item", "weight")
	weights.InsertValues(Str("beer"), Float(1.5))
	weights.InsertValues(Str("chips"), Float(0.5))
	weights.InsertValues(Str("diapers"), Int(2))
	weights.InsertValues(Str("odd\x00name"), Float(math.Pi))
	db.Add(weights)
	return db
}

func drain(t *testing.T, it Iterator) []Tuple {
	t.Helper()
	var out []Tuple
	for {
		batch, err := it.Next(7) // odd batch size to exercise refills
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		for _, tup := range batch {
			out = append(out, tup.Clone())
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func openBoth(t *testing.T, dir string) (*Database, *Database) {
	t.Helper()
	mem, _, err := OpenDir(dir, EngineMemory)
	if err != nil {
		t.Fatal(err)
	}
	disk, _, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	return mem, disk
}

func TestDirRoundTripBothEngines(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	mem, disk, err := func() (*Database, *Database, error) {
		m, _, err := OpenDir(dir, EngineMemory)
		if err != nil {
			return nil, nil, err
		}
		d, _, err := OpenDir(dir, EngineDisk)
		return m, d, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.MustSource("baskets").(*Relation); !ok {
		t.Fatal("memory engine should serve in-memory relations")
	}
	if _, ok := disk.MustSource("baskets").(*DiskRelation); !ok {
		t.Fatal("disk engine should serve disk relations")
	}
	for _, name := range db.Names() {
		orig := db.MustRelation(name)
		msrc, dsrc := mem.MustSource(name), disk.MustSource(name)
		if msrc.Len() != orig.Len() || dsrc.Len() != orig.Len() {
			t.Fatalf("%s: lens %d/%d, want %d", name, msrc.Len(), dsrc.Len(), orig.Len())
		}
		mrows, drows := drain(t, msrc.Scan()), drain(t, dsrc.Scan())
		if !reflect.DeepEqual(mrows, drows) {
			t.Fatalf("%s: scan order differs between engines\nmem:  %v\ndisk: %v", name, mrows, drows)
		}
		// Scan must be sorted (column-file order) and equal the original set.
		for i := 1; i < len(drows); i++ {
			if drows[i-1].Compare(drows[i]) >= 0 {
				t.Fatalf("%s: disk scan not in sorted order at %d: %v >= %v", name, i, drows[i-1], drows[i])
			}
		}
		prel, err := dsrc.Pin()
		if err != nil {
			t.Fatal(err)
		}
		if !prel.Equal(orig) {
			t.Fatalf("%s: pinned disk relation differs from original", name)
		}
		// Exact statistics parity across original, memory, and disk.
		for _, col := range orig.Columns() {
			want, _ := orig.DistinctCount(col)
			m, merr := msrc.DistinctCount(col)
			d, derr := dsrc.DistinctCount(col)
			if merr != nil || derr != nil || m != want || d != want {
				t.Fatalf("%s.%s: distinct %d/%d (%v/%v), want %d", name, col, m, d, merr, derr, want)
			}
			ms, _ := msrc.GroupSizes(col)
			ds, _ := dsrc.GroupSizes(col)
			if !sort.IntsAreSorted(ms) || !reflect.DeepEqual(ms, ds) {
				t.Fatalf("%s.%s: group sizes differ: %v vs %v", name, col, ms, ds)
			}
		}
	}
}

// decodeRows turns ID columns back into tuples through the dictionary.
func decodeRows(d *Dict, cols [][]uint32, n int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = make(Tuple, len(cols))
		for j := range cols {
			out[i][j] = d.Value(cols[j][i])
		}
	}
	return out
}

func mustDict(t *testing.T, db *Database) *Dict {
	t.Helper()
	d, err := db.Dict()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestIDAccessPathsBothEngines checks the ID-space access paths the
// executor reads base relations through: on both engines the columns
// decode to the scan rows in scan order; the ID index, at key widths 0, 1,
// 2 and full arity, enumerates the same rows in the same order as a scan
// filter, and nothing for a key the relation lacks; and the ID set holds
// exactly the stored tuples — a nullary relation's the empty tuple when
// it has a row.
func TestIDAccessPathsBothEngines(t *testing.T) {
	db := testDB(t)
	triples := NewRelation("triples", "a", "b", "c")
	for i := 0; i < 30; i++ {
		triples.InsertValues(Int(int64(i%4)), Str([]string{"x", "y", "z"}[i%3]), Float(float64(i%5)/2))
	}
	db.Add(triples)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	mem, disk := openBoth(t, dir)
	// A database of its own over the disk sources (as a shard builds)
	// has its own dictionary, here shifted by a smaller value: the column
	// files' IDs must be translated.
	shard := NewDatabase()
	for _, name := range disk.Names() {
		shard.AddSource(disk.MustSource(name))
	}
	extra := NewRelation("extra", "x")
	extra.InsertValues(Int(-5))
	shard.Add(extra)
	unit := NewRelation("unit")
	unit.InsertValues()
	shard.Add(unit)
	shard.Add(NewRelation("none"))
	for _, d := range []*Database{mem, disk, shard} {
		dict := mustDict(t, d)
		for _, name := range d.Names() {
			src := d.MustSource(name)
			rows := drain(t, src.Scan())
			cols, err := src.InternedColumns(dict, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := decodeRows(dict, cols, src.Len())
			if len(got) != len(rows) {
				t.Fatalf("%s: %d ID rows, %d scan rows", name, len(got), len(rows))
			}
			for i := range rows {
				if !got[i].Equal(rows[i]) {
					t.Fatalf("%s row %d: columns decode to %v, scan has %v", name, i, got[i], rows[i])
				}
			}
			checkIDSet(t, src, dict, cols, rows)
			arity := src.Arity()
			widths := [][]int{{}, {0}, {0, 1}, make([]int, arity)}
			for j := range widths[3] {
				widths[3][j] = arity - 1 - j // full arity, reversed
			}
			for _, on := range widths {
				if len(on) <= arity {
					checkIDIndex(t, src, dict, cols, rows, on)
				}
			}
		}
	}
}

// probeKeys returns ID keys over the columns on: every row's projection,
// every row's with its first component taken from the next row (pairs
// that may not co-occur), and one holding an ID no value has.
func probeKeys(dict *Dict, cols [][]uint32, n int, on []int) [][]uint32 {
	var keys [][]uint32
	for i := 0; i < n; i++ {
		k := make([]uint32, len(on))
		for j, p := range on {
			k[j] = cols[p][i]
		}
		keys = append(keys, k)
		if len(on) > 0 {
			mixed := append([]uint32(nil), k...)
			mixed[0] = cols[on[0]][(i+1)%n]
			keys = append(keys, mixed)
		}
	}
	if len(on) > 0 {
		unknown := make([]uint32, len(on))
		for j := range unknown {
			unknown[j] = uint32(dict.Len())
		}
		keys = append(keys, unknown)
	}
	return keys
}

// scanMatches returns the scan rows whose columns on equal the key's
// values; an ID the dictionary never issued matches nothing.
func scanMatches(dict *Dict, rows []Tuple, on []int, key []uint32) []int32 {
	var out []int32
next:
	for i, row := range rows {
		for j, p := range on {
			if int(key[j]) >= dict.Len() || !row[p].Equal(dict.Value(key[j])) {
				continue next
			}
		}
		out = append(out, int32(i))
	}
	return out
}

func checkIDIndex(t *testing.T, src RelationSource, dict *Dict, cols [][]uint32, rows []Tuple, on []int) {
	t.Helper()
	ix, err := src.IDIndex(dict, on, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range probeKeys(dict, cols, len(rows), on) {
		want := scanMatches(dict, rows, on, key)
		if got := ix.Lookup(key); len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: index on %v, key %v: rows %v, want %v", src.Name(), on, key, got, want)
			}
		}
	}
	if len(on) == 0 {
		if got := ix.Lookup(nil); len(got) != len(rows) {
			t.Fatalf("%s: keyless index holds %d rows, want all %d", src.Name(), len(got), len(rows))
		}
	}
}

func checkIDSet(t *testing.T, src RelationSource, dict *Dict, cols [][]uint32, rows []Tuple) {
	t.Helper()
	set, err := src.IDSet(dict, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, src.Arity())
	for j := range all {
		all[j] = j
	}
	keys := probeKeys(dict, cols, len(rows), all)
	if len(all) == 0 {
		keys = [][]uint32{{}}
	}
	for _, key := range keys {
		want := len(scanMatches(dict, rows, all, key)) > 0
		if got := set.Find(key) >= 0; got != want {
			t.Fatalf("%s: ID set has %v = %v, want %v", src.Name(), key, got, want)
		}
	}
}

func TestDeltaAppendAndReopen(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	live, handle, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	added := []Tuple{
		{Int(900), Str("beer")},
		{Int(900), Str("anchovies")},
	}
	if err := mutateDir(live, handle, "baskets", added, 7); err != nil {
		t.Fatal(err)
	}

	mem, disk := openBoth(t, dir)
	if mem.Version() != 7 || disk.Version() != 7 {
		t.Fatalf("versions %d/%d, want 7", mem.Version(), disk.Version())
	}
	base := db.MustRelation("baskets").Len()
	for _, d := range []*Database{mem, disk} {
		src := d.MustSource("baskets")
		if src.Len() != base+2 {
			t.Fatalf("len %d, want %d", src.Len(), base+2)
		}
		// Delta rows participate in membership, lookups and statistics,
		// including "anchovies", which the persisted DICT has never seen.
		dict := mustDict(t, d)
		if !containsTuple(t, src, dict, Tuple{Int(900), Str("anchovies")}) {
			t.Fatal("delta row not visible through the ID set")
		}
		ix, err := src.IDIndex(dict, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		id900, _ := dict.Lookup(Int(900))
		if rows := ix.Lookup([]uint32{id900}); len(rows) != 2 {
			t.Fatalf("index lookup over delta: %d rows, want 2", len(rows))
		}
		origDistinct, _ := db.MustRelation("baskets").DistinctCount("basket")
		if got, err := src.DistinctCount("basket"); err != nil || got != origDistinct+1 {
			t.Fatalf("distinct baskets %d (%v), want %d", got, err, origDistinct+1)
		}
	}
	mrows := drain(t, mem.MustSource("baskets").Scan())
	drows := drain(t, disk.MustSource("baskets").Scan())
	if !reflect.DeepEqual(mrows, drows) {
		t.Fatal("scan order differs between engines after delta")
	}
	if got := disk.IO().DeltaRows(); got == 0 {
		t.Fatal("delta-merge rows not counted")
	}

	// Cross-engine writes: each engine mutates through WithDelta with
	// values the DICT lacks (a string and a float), and the other engine,
	// reopening, must hold the same rows in the same order at the same
	// version.
	for i, step := range []struct{ write, read Engine }{{EngineMemory, EngineDisk}, {EngineDisk, EngineMemory}} {
		db, h, err := OpenDir(dir, step.write)
		if err != nil {
			t.Fatal(err)
		}
		rows := []Tuple{{Int(int64(910 + i)), Str(fmt.Sprintf("new-%d", i))}, {Int(int64(910 + i)), Float(0.25 + float64(i))}}
		version := db.Version() + 1
		if err := mutateDir(db, h, "baskets", rows, version); err != nil {
			t.Fatal(err)
		}
		want := drain(t, db.MustSource("baskets").Scan())
		if tail := want[len(want)-len(rows):]; !reflect.DeepEqual(tail, rows) {
			t.Fatalf("%v write: the rows end in %v, want the appended %v", step.write, tail, rows)
		}
		re, _, err := OpenDir(dir, step.read)
		if err != nil {
			t.Fatal(err)
		}
		if got := drain(t, re.MustSource("baskets").Scan()); !reflect.DeepEqual(got, want) || re.Version() != version {
			t.Fatalf("%v write, %v reopen: version %d, rows differ from the writer's (want version %d)",
				step.write, step.read, re.Version(), version)
		}
	}
}

// idTuples decodes ID rows of d.
func idTuples(d *Dict, rows [][]uint32) []Tuple {
	out := make([]Tuple, len(rows))
	for i, row := range rows {
		out[i] = make(Tuple, len(row))
		for j, id := range row {
			out[i][j] = d.Value(id)
		}
	}
	return out
}

// containsTuple probes a source's ID set for a boxed tuple; a value the
// dictionary has never seen cannot be a member.
func containsTuple(t *testing.T, src RelationSource, dict *Dict, tup Tuple) bool {
	t.Helper()
	set, err := src.IDSet(dict, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, len(tup))
	for i, v := range tup {
		id, ok := dict.Lookup(v)
		if !ok {
			return false
		}
		ids[i] = id
	}
	return set.Find(ids) >= 0
}

func TestWithDeltaCopyOnWrite(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	disk, _, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	dict := mustDict(t, disk)
	src := disk.MustSource("baskets").(*DiskRelation)
	if _, err := src.InternedColumns(dict, nil); err != nil { // the one column-file read
		t.Fatal(err)
	}
	next, added, err := src.WithDelta([]Tuple{
		{Int(1), Str("beer")},   // duplicate of a base row: must be dropped
		{Float(1), Str("beer")}, // the same row across kinds: still a duplicate
		{Int(777), Str("beer")},
		{Int(777), Str("beer")}, // duplicate within the batch
		{Int(778), Str("kale")}, // a value the persisted DICT has never seen
	})
	if err != nil {
		t.Fatal(err)
	}
	addedRows := idTuples(dict, added)
	if len(added) != 2 || !addedRows[0].Equal(Tuple{Int(777), Str("beer")}) || !addedRows[1].Equal(Tuple{Int(778), Str("kale")}) {
		t.Fatalf("added %v, want (777, beer) and (778, kale)", addedRows)
	}
	if src.Len()+2 != next.Len() {
		t.Fatalf("lens %d -> %d", src.Len(), next.Len())
	}
	// The new view extends the built columns instead of streaming the
	// column file again; the old view is untouched.
	before := disk.IO().BytesRead()
	cols, err := next.InternedColumns(dict, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := disk.IO().BytesRead(); got != before {
		t.Fatalf("the view after WithDelta re-read %d column-file bytes", got-before)
	}
	if len(cols[0]) != next.Len() {
		t.Fatalf("%d ID rows for %d tuples", len(cols[0]), next.Len())
	}
	rows := drain(t, next.Scan())
	for i, row := range decodeRows(dict, cols, next.Len()) {
		if !row.Equal(rows[i]) {
			t.Fatalf("row %d: columns decode to %v, scan has %v", i, row, rows[i])
		}
	}
	for _, tup := range addedRows {
		if containsTuple(t, src, dict, tup) {
			t.Fatalf("old view sees the new row %v", tup)
		}
		if !containsTuple(t, next, dict, tup) {
			t.Fatalf("new view misses the new row %v", tup)
		}
	}
	// Statistics of the new view come from its columns, not the column file.
	sizes, err := next.GroupSizes("item")
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := next.Pin() // decodes the built columns
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := pinned.GroupSizes("item"); !reflect.DeepEqual(sizes, want) {
		t.Fatalf("group sizes %v, want %v", sizes, want)
	}
}

// TestColumnBuildFailureLeavesNoCache covers the two ways a first-touch
// column build stops early — the caller's check cancels it, or the
// column file turns out short — and that neither leaves a partial cache: the
// next call builds from scratch.
func TestColumnBuildFailureLeavesNoCache(t *testing.T) {
	db := NewDatabase()
	big := NewRelation("big", "a", "b")
	for i := 0; i < 3*internBatch; i++ {
		big.InsertValues(Int(int64(i)), Int(int64(i%7)))
	}
	db.Add(big)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	mem, disk := openBoth(t, dir)
	stop := errors.New("stop")
	// The memory engine's ID image is the column file itself: nothing is
	// built, so a check that would fail is never consulted. Cancellation
	// of an in-memory build is covered on a relation built from tuples.
	if _, err := mem.MustSource("big").IDIndex(mustDict(t, mem), []int{1}, func() error { return stop }); err != nil {
		t.Fatalf("memory engine built the ID image the column file seeds: %v", err)
	}
	tuples := NewDatabase()
	tuples.Add(big.Clone())
	for name, d := range map[string]*Database{"memory": tuples, "disk": disk} {
		dict := mustDict(t, d)
		src := d.MustSource("big")
		calls := 0
		_, err := src.IDIndex(dict, []int{1}, func() error {
			if calls++; calls > 2 {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Fatalf("%s: cancelled build returned %v", name, err)
		}
		cols, err := src.InternedColumns(dict, nil)
		if err != nil || len(cols[0]) != big.Len() {
			t.Fatalf("%s: build after a cancelled one: %d rows, %v", name, len(cols[0]), err)
		}
	}

	// Cut the column file under a freshly opened disk database: the build
	// must fail with a typed error naming the relation, not panic.
	disk2, _, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "big"+colExt)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	src := disk2.MustSource("big")
	_, err = src.InternedColumns(mustDict(t, disk2), nil)
	var segErr *SegmentError
	if !errors.As(err, &segErr) || segErr.Relation != "big" {
		t.Fatalf("truncated column file: got %v, want a SegmentError naming big", err)
	}
	if _, err := src.GroupSizes("a"); err != nil {
		t.Fatalf("delta-free statistics come from the catalog, got %v", err)
	}
	if _, err := src.Pin(); !errors.As(err, &segErr) {
		t.Fatalf("pin over a truncated column file: got %v, want a SegmentError", err)
	}
}

func TestSegmentIOCounters(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	disk, handle, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	stats := handle.IO()
	if stats != disk.IO() {
		t.Fatal("database and dir handle disagree on IOStats")
	}
	if stats.SegmentsOpened() != int64(len(db.Names())) {
		t.Fatalf("segments opened %d, want %d", stats.SegmentsOpened(), len(db.Names()))
	}
	before := stats.BytesRead()
	drain(t, disk.MustSource("baskets").Scan())
	if stats.BytesRead() <= before {
		t.Fatal("scan did not count bytes read")
	}
	// The mutate path's duplicate check searches the column file read
	// once: a cold relation reads it, later probes read nothing.
	weights := disk.MustSource("weights").(*DiskRelation)
	before = stats.BytesRead()
	next, _, err := weights.WithDelta([]Tuple{{Str("kale"), Int(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesRead() <= before {
		t.Fatal("the duplicate probe on a cold relation did not count its column-file read")
	}
	before = stats.BytesRead()
	if _, _, err := next.WithDelta([]Tuple{{Str("beer"), Float(1.5)}}); err != nil {
		t.Fatal(err)
	}
	if stats.BytesRead() != before {
		t.Fatal("a duplicate probe on a built relation read the column file again")
	}
}

func TestDictPersistence(t *testing.T) {
	db := testDB(t)
	want := mustDict(t, db)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	mem, _, err := OpenDir(dir, EngineMemory)
	if err != nil {
		t.Fatal(err)
	}
	got := mustDict(t, mem)
	if got.Len() != want.Len() {
		t.Fatalf("dict len %d, want %d", got.Len(), want.Len())
	}
	for id := 0; id < want.Len(); id++ {
		gv, wv := got.Value(uint32(id)), want.Value(uint32(id))
		if gv.Kind() != wv.Kind() || !gv.Equal(wv) {
			t.Fatalf("dict id %d: %#v vs %#v", id, gv, wv)
		}
	}
	if got.OrderExactLen() != want.OrderExactLen() || int(got.OrderExactLen()) != want.Len() {
		t.Fatal("persisted dictionary lost its order-preserved range")
	}
}

// TestIndexLookupAllocs pins the byte-key probe, the relation's boxed
// membership probe, and the ID set's membership probe and
// the ID index's lookup at key widths 1–3, at 0 allocs/op.
func TestIndexLookupAllocs(t *testing.T) {
	rel := NewRelation("r", "a", "b")
	for i := 0; i < 4096; i++ {
		rel.InsertValues(Int(int64(i%97)), Int(int64(i)))
	}
	ix := rel.Index([]int{0})
	buf := Tuple{Int(13)}.AppendKey(nil)
	if n := testing.AllocsPerRun(200, func() {
		if len(ix.LookupBytes(buf)) == 0 {
			t.Fatal("probe missed")
		}
	}); n != 0 {
		t.Fatalf("LookupBytes: %v allocs/op, want 0", n)
	}
	member := Tuple{Int(13), Int(13)}
	if n := testing.AllocsPerRun(200, func() {
		if !rel.Contains(member) {
			t.Fatal("Contains missed")
		}
	}); n != 0 {
		t.Fatalf("Contains: %v allocs/op, want 0", n)
	}

	for width := 1; width <= 3; width++ {
		cols := make([]string, width)
		on := make([]int, width)
		for j := range cols {
			cols[j] = string(rune('a' + j))
			on[j] = j
		}
		rel := NewRelation("r", cols...)
		for i := 0; i < 4096; i++ {
			tup := make(Tuple, width)
			for j := range tup {
				tup[j] = Int(int64(i % (97 + j)))
			}
			rel.Insert(tup)
		}
		dict := NewDict()
		set, err := rel.IDSet(dict, nil)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := rel.IDIndex(dict, on, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := rel.InternedColumns(dict, nil)
		if err != nil {
			t.Fatal(err)
		}
		key := make([]uint32, width)
		for j := range key {
			key[j] = ids[j][13]
		}
		if n := testing.AllocsPerRun(200, func() {
			if set.Find(key) < 0 {
				t.Fatal("member missed")
			}
		}); n != 0 {
			t.Fatalf("IDSet Find, width %d: %v allocs/op, want 0", width, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if len(idx.Lookup(key)) == 0 {
				t.Fatal("probe missed")
			}
		}); n != 0 {
			t.Fatalf("IDIndex Lookup, width %d: %v allocs/op, want 0", width, n)
		}
	}
}

// TestDiskIDCachesConcurrent hammers a cold disk relation from several
// readers (each asking for columns, an index and the set) while a writer
// derives delta views from it: every reader must see the one complete
// build, and every view the base rows plus exactly its own delta.
func TestDiskIDCachesConcurrent(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	if err := CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	disk, _, err := OpenDir(dir, EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	dict := mustDict(t, disk)
	src := disk.MustSource("baskets").(*DiskRelation)
	want := src.Len()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cols, err := src.InternedColumns(dict, nil)
			if err != nil || len(cols[0]) != want {
				t.Errorf("reader %d: %d ID rows, %v; want %d", g, len(cols[0]), err, want)
				return
			}
			if _, err := src.IDIndex(dict, []int{g % 2}, nil); err != nil {
				t.Errorf("reader %d: %v", g, err)
			}
			if _, err := src.IDSet(dict, nil); err != nil {
				t.Errorf("reader %d: %v", g, err)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var view RelationSource = src
		for i := 0; i < 20; i++ {
			next, added, err := view.WithDelta([]Tuple{{Int(int64(5000 + i)), Str("kale")}})
			if err != nil || len(added) != 1 {
				t.Errorf("delta %d: added %v, %v", i, added, err)
				return
			}
			cols, err := next.InternedColumns(dict, nil)
			if err != nil || len(cols[0]) != want+i+1 {
				t.Errorf("delta %d: %d ID rows, %v; want %d", i, len(cols[0]), err, want+i+1)
				return
			}
			view = next
		}
	}()
	wg.Wait()
}
