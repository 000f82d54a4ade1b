package planner

import (
	"os"
	"path/filepath"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// engineVariants runs a flock under the three strategies the engine
// oracles sweep, recording operator events into tr when it is non-nil.
func engineVariants(f *core.Flock) map[string]func(db *storage.Database, workers int, tr *eval.Trace) (*sweepAnswer, error) {
	return map[string]func(*storage.Database, int, *eval.Trace) (*sweepAnswer, error){
		"direct": func(db *storage.Database, workers int, tr *eval.Trace) (*sweepAnswer, error) {
			rel, err := f.Eval(db, &core.EvalOptions{Workers: workers, Trace: tr})
			return &sweepAnswer{rel: rel}, err
		},
		"static": func(db *storage.Database, workers int, tr *eval.Trace) (*sweepAnswer, error) {
			plan, err := PlanStatic(f, NewEstimator(db), nil)
			if err != nil {
				return nil, err
			}
			res, err := plan.Execute(db, &core.EvalOptions{Workers: workers, Trace: tr})
			if err != nil {
				return nil, err
			}
			return &sweepAnswer{rel: res.Answer}, nil
		},
		"dynamic": func(db *storage.Database, workers int, tr *eval.Trace) (*sweepAnswer, error) {
			res, err := EvalDynamic(db, f, &DynamicOptions{Workers: workers, Trace: tr})
			if err != nil {
				return nil, err
			}
			return &sweepAnswer{rel: res.Answer, decisions: res.Decisions}, nil
		},
	}
}

// assertColumnar fails when a traced run used anything but ID batches.
func assertColumnar(t *testing.T, tr *eval.Trace, what string) {
	t.Helper()
	idBatches := 0
	for _, e := range tr.Events() {
		if e.BoxedBatches > 0 {
			t.Fatalf("%s: %s#%d ran %d boxed batches, want 0", what, e.Op, e.ID, e.BoxedBatches)
		}
		idBatches += e.IDBatches
	}
	if idBatches == 0 {
		t.Fatalf("%s: no operator reported an ID batch", what)
	}
}

// assertSameAnswers compares a disk-engine run against the memory
// engine's: same tuples in the same order and the same decisions.
func assertSameAnswers(t *testing.T, what string, disk, mem *sweepAnswer) {
	t.Helper()
	if got, want := disk.rel.Dump(), mem.rel.Dump(); got != want {
		t.Fatalf("%s: disk answer not bit-identical to memory\ndisk:\n%s\nmemory:\n%s", what, got, want)
	}
	if len(disk.decisions) != len(mem.decisions) {
		t.Fatalf("%s: %d disk decisions vs %d memory", what, len(disk.decisions), len(mem.decisions))
	}
	for i := range disk.decisions {
		if disk.decisions[i].String() != mem.decisions[i].String() {
			t.Fatalf("%s decision %d differs:\ndisk: %s\nmemory: %s", what, i, disk.decisions[i], mem.decisions[i])
		}
	}
}

// TestDiskEngineMatchesMemoryCorpus is the storage-engine property test:
// for every program in examples/flocks, the same data directory opened
// with the disk engine (ID columns built by streaming the sorted
// segments) must be bit-identical to the memory engine (relations
// read at open) — same answer tuples in the same order (Dump
// equality), and for the dynamic strategy the same decision sequence —
// across strategies direct/static/dynamic and worker counts 1, 2 and 8.
// Both must equal the naive evaluator's answer set, and every disk run
// must stay on ID batches (boxed_batches == 0).
func TestDiskEngineMatchesMemoryCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "flocks")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty corpus")
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".flock" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			f, err := core.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			base := corpusDB(t, name)
			dataDir := t.TempDir()
			if err := storage.CreateDir(dataDir, base); err != nil {
				t.Fatal(err)
			}
			memDB, _, err := storage.OpenDir(dataDir, storage.EngineMemory)
			if err != nil {
				t.Fatal(err)
			}
			diskDB, _, err := storage.OpenDir(dataDir, storage.EngineDisk)
			if err != nil {
				t.Fatal(err)
			}

			naive, err := f.EvalNaive(base, nil)
			if err != nil {
				t.Fatal(err)
			}
			for vname, run := range engineVariants(f) {
				t.Run(vname, func(t *testing.T) {
					var firstDump string
					for _, w := range []int{1, 2, 8} {
						mem, err := run(memDB, w, nil)
						if err != nil {
							t.Fatalf("memory workers=%d: %v", w, err)
						}
						tr := &eval.Trace{}
						disk, err := run(diskDB, w, tr)
						if err != nil {
							t.Fatalf("disk workers=%d: %v", w, err)
						}
						assertColumnar(t, tr, "disk")
						assertSameAnswers(t, "", disk, mem)
						if !disk.rel.Equal(naive) {
							t.Fatalf("workers=%d: disk answer differs from the naive evaluator\ndisk:\n%s\nnaive:\n%s",
								w, disk.rel.Dump(), naive.Dump())
						}
						if firstDump == "" {
							firstDump = disk.rel.Dump()
						} else if got := disk.rel.Dump(); got != firstDump {
							t.Fatalf("workers=%d: disk answer order differs between worker counts\ngot:\n%s\nwant:\n%s", w, got, firstDump)
						}
					}
					// The round-trip itself must be lossless: answers over the
					// reopened directory equal answers over the generator's
					// in-memory database.
					orig, err := run(base, 1, nil)
					if err != nil {
						t.Fatalf("original db: %v", err)
					}
					if got, want := firstDump, orig.rel.Dump(); got != want {
						t.Fatalf("data-dir answer differs from original database\ndata-dir:\n%s\noriginal:\n%s", got, want)
					}
				})
			}
		})
	}
}

// TestDiskEngineAfterDelta is the post-mutate oracle. A disk database
// takes a delta the way flockd applies one (WithDelta view + durable
// append) holding values the persisted DICT has never seen, a cross-kind
// duplicate of a base row, and rows whose repeated-variable match is
// itself cross-kind (Int vs Float); the live disk view, the directory
// reopened by each engine, and the naive evaluator must then agree on
// flocks that join through the new values and on r(X,X,C). Reading the
// mutated view must not stream the base segment again.
func TestDiskEngineAfterDelta(t *testing.T) {
	base := storage.NewDatabase()
	r := storage.NewRelation("r", "A", "B", "C")
	for i := int64(1); i <= 40; i++ {
		r.InsertValues(storage.Int(i%5), storage.Int(i%7), storage.Str([]string{"c1", "c2", "c3"}[i%3]))
	}
	r.InsertValues(storage.Int(1), storage.Float(1), storage.Str("c1")) // base row, cross-kind X,X
	base.Add(r)
	s := storage.NewRelation("s", "C")
	for _, c := range []string{"c1", "c2", "c3", "fresh"} {
		s.InsertValues(storage.Str(c))
	}
	base.Add(s)

	dir := t.TempDir()
	if err := storage.CreateDir(dir, base); err != nil {
		t.Fatal(err)
	}
	diskDB, handle, err := storage.OpenDir(dir, storage.EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	flocks := map[string]*core.Flock{}
	for name, src := range map[string]string{
		"repeated-var": "QUERY:\nanswer(X) :- r(X,X,$c)\nFILTER:\nCOUNT(answer.X) >= 2\n",
		"join":         "QUERY:\nanswer(A,B) :- r(A,B,$c) AND s($c)\nFILTER:\nCOUNT(answer.A) >= 3\n",
	} {
		f, err := core.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		flocks[name] = f
	}
	// A cold read first: the mutate below then has built columns to extend.
	for _, f := range flocks {
		if _, err := f.Eval(diskDB, nil); err != nil {
			t.Fatal(err)
		}
	}

	rel := diskDB.MustSource("r").(*storage.DiskRelation)
	next, added, err := rel.WithDelta([]storage.Tuple{
		{storage.Float(1), storage.Int(1), storage.Str("c1")},      // cross-kind duplicate of base (1, 1.0, c1)
		{storage.Float(8), storage.Int(8), storage.Str("fresh")},   // new values; X,X matches across kinds
		{storage.Int(9), storage.Int(9), storage.Str("fresh")},     // new values, same kind
		{storage.Int(9), storage.Float(9.5), storage.Str("fresh")}, // 9 vs 9.5: no X,X match
		{storage.Int(2), storage.Int(2), storage.Str("fresh")},
		{storage.Int(3), storage.Int(4), storage.Str("fresh")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 5 {
		t.Fatalf("added %d rows, want 5 (the cross-kind duplicate dropped): %v", len(added), added)
	}
	if err := handle.AppendDelta("r", added, diskDB.Version()+1); err != nil {
		t.Fatal(err)
	}
	mutated := diskDB.Clone()
	mutated.AddSource(next)
	mutated.SetVersion(diskDB.Version() + 1)

	memDB, _, err := storage.OpenDir(dir, storage.EngineMemory)
	if err != nil {
		t.Fatal(err)
	}
	if memDB.MustSource("r").Len() != next.Len() {
		t.Fatalf("reopened memory engine has %d rows, live disk view %d", memDB.MustSource("r").Len(), next.Len())
	}
	reopened, _, err := storage.OpenDir(dir, storage.EngineDisk)
	if err != nil {
		t.Fatal(err)
	}

	for name, f := range flocks {
		naive, err := f.EvalNaive(memDB, nil)
		if err != nil {
			t.Fatal(err)
		}
		if naive.Len() == 0 {
			t.Fatalf("%s: empty oracle answer proves nothing", name)
		}
		for vname, run := range engineVariants(f) {
			for _, w := range []int{1, 2, 8} {
				what := name + "/" + vname
				mem, err := run(memDB, w, nil)
				if err != nil {
					t.Fatalf("%s memory workers=%d: %v", what, w, err)
				}
				before := mutated.IO().BytesRead()
				tr := &eval.Trace{}
				disk, err := run(mutated, w, tr)
				if err != nil {
					t.Fatalf("%s disk workers=%d: %v", what, w, err)
				}
				if read := mutated.IO().BytesRead() - before; read != 0 {
					t.Fatalf("%s workers=%d: the read after the mutate streamed %d segment bytes, want 0", what, w, read)
				}
				assertColumnar(t, tr, what)
				assertSameAnswers(t, what, disk, mem)
				again, err := run(reopened, w, nil)
				if err != nil {
					t.Fatalf("%s reopened disk workers=%d: %v", what, w, err)
				}
				assertSameAnswers(t, what+" (reopened)", again, mem)
				if !disk.rel.Equal(naive) {
					t.Fatalf("%s workers=%d: disk answer differs from the naive evaluator\ndisk:\n%s\nnaive:\n%s",
						what, w, disk.rel.Dump(), naive.Dump())
				}
			}
		}
	}
	// The delta-aware answer really depends on the delta rows.
	if got, err := flocks["repeated-var"].Eval(mutated, nil); err != nil ||
		!got.Contains(storage.Tuple{storage.Str("fresh")}) {
		t.Fatalf("r(X,X,$c) after the delta should admit $c=fresh (8.0/8, 9/9, 2/2): %v, %v", got, err)
	}
}

// TestDiskEnginePeakBelowBase checks that the disk engine streams a
// scan+group flock (frequent single items, the first a-priori pass)
// rather than buffering it: the per-group COUNT accumulators stop
// retaining tuples once the threshold is reached, so the peak buffered
// tuples stay on the order of items x threshold, far below the base
// cardinality the scan streams past.
func TestDiskEnginePeakBelowBase(t *testing.T) {
	base := workload.Baskets(workload.BasketConfig{Baskets: 4000, Items: 100, MeanSize: 8, Skew: 1.0, Seed: 7})
	baseRows := base.MustRelation("baskets").Len()
	dir := t.TempDir()
	if err := storage.CreateDir(dir, base); err != nil {
		t.Fatal(err)
	}
	f := core.MustParse("QUERY:\nanswer(B) :- baskets(B,$1)\nFILTER:\nCOUNT(answer.B) >= 20\n")
	for _, w := range []int{1, 8} {
		diskDB, _, err := storage.OpenDir(dir, storage.EngineDisk)
		if err != nil {
			t.Fatal(err)
		}
		tr := &eval.Trace{}
		answer, err := f.Eval(diskDB, &core.EvalOptions{Workers: w, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if answer.Len() == 0 {
			t.Fatal("empty answer proves nothing")
		}
		if rep := tr.Report("disk", w, answer.Len()); rep.PeakTuples*4 > baseRows {
			t.Errorf("workers=%d: disk peak %d tuples is not << base %d rows", w, rep.PeakTuples, baseRows)
		}
	}
}
