package core

import (
	"math/rand"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// mapMemo is a minimal in-test SubqueryMemo: an unbounded map per plane
// with traffic counters, so tests can assert which plane served a run
// without depending on the serving-layer LRU.
type mapMemo struct {
	ext                                  map[string]*physical.IDRows
	surv                                 map[string]*storage.Relation
	extHits, extMiss, survHits, survMiss int
}

func newMapMemo() *mapMemo {
	return &mapMemo{ext: map[string]*physical.IDRows{}, surv: map[string]*storage.Relation{}}
}

func (m *mapMemo) Extended(key string, dict *storage.Dict) (*physical.IDRows, bool) {
	rows, ok := m.ext[key]
	if ok && rows.Dict == dict {
		m.extHits++
		return rows, true
	}
	m.extMiss++
	return nil, false
}
func (m *mapMemo) PutExtended(key string, rows *physical.IDRows) { m.ext[key] = rows }
func (m *mapMemo) Survivors(key string) (*storage.Relation, bool) {
	rel, ok := m.surv[key]
	if ok {
		m.survHits++
	} else {
		m.survMiss++
	}
	return rel, ok
}
func (m *mapMemo) PutSurvivors(key string, rel *storage.Relation) { m.surv[key] = rel }

// rebind returns f with its filter replaced, over the same query: the
// variant shares f's extended key.
func rebind(t *testing.T, f *Flock, agg datalog.AggKind, target string, op datalog.CmpOp, threshold storage.Value) *Flock {
	t.Helper()
	g, err := New(f.Query, datalog.FilterSpec{Agg: agg, Target: target, Op: op, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMemoMatchesDirectRandomized is the memo-route oracle: on random
// instances, direct evaluation and plan execution must agree with the
// naive oracle with the memo cold, with the memo hot, and after a filter
// rebind served from the extended plane (tighter and looser thresholds, a
// MAX and a MIN over the same query) — at worker counts 1, 2 and 8 — and
// the hot direct run must be served from the survivor plane.
func TestMemoMatchesDirectRandomized(t *testing.T) {
	const trials = 150
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		db := randomFlockDB(rng)
		f := randomFlock(rng)
		workers := []int{1, 2, 8}[trial%3]
		oracle := func(f *Flock) *storage.Relation {
			want, err := f.EvalNaive(db, nil)
			if err != nil {
				t.Fatalf("trial %d naive: %v", trial, err)
			}
			return want
		}
		want := oracle(f)

		memo := newMapMemo()
		opts := &EvalOptions{Memo: memo, MemoSalt: MemoContext(db, f), Workers: workers}
		cold, err := f.Eval(db, opts)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		if !cold.Equal(want) {
			t.Fatalf("trial %d: cold memo != naive\nflock:\n%s\ncold:\n%s\nwant:\n%s",
				trial, f, cold.Dump(), want.Dump())
		}
		before := memo.survHits
		hot, err := f.Eval(db, opts)
		if err != nil {
			t.Fatalf("trial %d hot: %v", trial, err)
		}
		if !hot.Equal(want) {
			t.Fatalf("trial %d: hot memo != naive\nflock:\n%s", trial, f)
		}
		if memo.survHits <= before {
			t.Fatalf("trial %d: hot run did not hit the survivor plane", trial)
		}
		for _, g := range []*Flock{
			rebind(t, f, datalog.AggCount, "", datalog.Ge, storage.Int(4)),
			rebind(t, f, datalog.AggCount, "", datalog.Gt, storage.Int(0)),
			rebind(t, f, datalog.AggMax, "X", datalog.Ge, storage.Int(1)),
			rebind(t, f, datalog.AggMin, "X", datalog.Le, storage.Int(1)),
		} {
			hits := memo.extHits
			got, err := g.Eval(db, opts)
			if err != nil {
				t.Fatalf("trial %d rebind %s: %v", trial, g.Filter, err)
			}
			if wantG := oracle(g); !got.Equal(wantG) {
				t.Fatalf("trial %d: rebind %s from the extended plane != naive\nflock:\n%s\ngot:\n%s\nwant:\n%s",
					trial, g.Filter, f, got.Dump(), wantG.Dump())
			}
			if memo.extHits <= hits {
				t.Fatalf("trial %d: rebind %s did not replay the extended answer", trial, g.Filter)
			}
		}

		plan, err := randomLegalPlan(f, rng)
		if err != nil {
			t.Fatalf("trial %d plan build: %v", trial, err)
		}
		pmemo := newMapMemo()
		popts := &EvalOptions{Memo: pmemo, MemoSalt: MemoContext(db, f), Workers: workers}
		for pass := 0; pass < 2; pass++ {
			res, err := plan.Execute(db, popts)
			if err != nil {
				t.Fatalf("trial %d plan pass %d: %v\nplan:\n%s", trial, pass, err, plan)
			}
			if !res.Answer.Equal(want) {
				t.Fatalf("trial %d plan pass %d: plan+memo != naive\nflock:\n%s\nplan:\n%s\ngot:\n%s\nwant:\n%s",
					trial, pass, f, plan, res.Answer.Dump(), want.Dump())
			}
		}
		if pmemo.survHits == 0 {
			t.Fatalf("trial %d: second plan pass did not hit the memo", trial)
		}
	}
}

func countFlock(t *testing.T, threshold int64) *Flock {
	t.Helper()
	u := datalog.Union{datalog.NewRule(
		datalog.NewAtom("answer", datalog.Var("X")),
		datalog.NewAtom("r", datalog.Var("X"), datalog.Param("p")),
	)}
	f, err := New(u, datalog.FilterSpec{
		Agg: datalog.AggCount, Op: datalog.Ge, Threshold: storage.Int(threshold),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func memoDB() *storage.Database {
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "A", "B")
	for _, row := range [][2]int64{{1, 1}, {2, 1}, {3, 1}, {1, 2}, {2, 2}} {
		r.InsertValues(storage.Int(row[0]), storage.Int(row[1]))
	}
	db.Add(r)
	return db
}

// TestMemoThresholdTighteningReusesExtended checks the §3.1 factoring
// the memo is built on: the extended answer is filter-independent, so a
// threshold-tightened flock reuses it (extended hit) while recomputing
// only the group-and-filter pass (survivor miss).
func TestMemoThresholdTighteningReusesExtended(t *testing.T) {
	db := memoDB()
	memo := newMapMemo()
	loose, tight := countFlock(t, 2), countFlock(t, 3)

	got, err := loose.Eval(db, &EvalOptions{Memo: memo, MemoSalt: MemoContext(db, loose)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 { // p=1 has 3 baskets, p=2 has 2
		t.Fatalf("loose answer:\n%s", got.Dump())
	}

	got, err = tight.Eval(db, &EvalOptions{Memo: memo, MemoSalt: MemoContext(db, tight)})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("tight answer:\n%s", got.Dump())
	}
	if memo.extHits == 0 {
		t.Fatal("tightened threshold should reuse the memoized extended answer")
	}
	if memo.survHits != 0 {
		t.Fatal("tightened threshold must not reuse the other threshold's survivors")
	}

	want, err := tight.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("memoized tight answer differs from plain:\n%s\nvs\n%s", got.Dump(), want.Dump())
	}
}

// groupsOfSizes holds r(A,B) where group B=k has sizes[k] members.
func groupsOfSizes(sizes ...int) *storage.Database {
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "A", "B")
	for p, n := range sizes {
		for x := 0; x < n; x++ {
			r.InsertValues(storage.Int(int64(x)), storage.Int(int64(p)))
		}
	}
	db.Add(r)
	return db
}

// TestMemoCapturesShortCircuitedGroups: a cold run whose groups
// short-circuit must still memoize every row of them — the extended answer
// is filter-independent — so a rebind that reads more of a group than the
// first filter did (a higher threshold, a MAX) answers like the naive
// oracle. The memo path holds no more tuples than the boxed memo path
// charged (extended rows + groups + survivors): a budget of exactly that
// admits the capturing run and every replay.
func TestMemoCapturesShortCircuitedGroups(t *testing.T) {
	sizes := []int{3, 8, 25, 40}
	db := groupsOfSizes(sizes...)
	extRows := 3 + 8 + 25 + 40
	base := countFlock(t, 20)
	variants := []*Flock{
		countFlock(t, 20), countFlock(t, 5), countFlock(t, 40), countFlock(t, 41),
		rebind(t, base, datalog.AggMax, "X", datalog.Ge, storage.Int(30)),
		rebind(t, base, datalog.AggSum, "X", datalog.Ge, storage.Int(300)),
		rebind(t, base, datalog.AggCount, "X", datalog.Ge, storage.Int(9)),
	}
	for _, first := range []int{0, 1} {
		memo := newMapMemo()
		order := append([]*Flock{variants[first]}, variants...)
		for i, f := range order {
			want, err := f.EvalNaive(db, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := &eval.Trace{}
			budget := extRows + len(sizes) + want.Len()
			got, err := f.Eval(db, &EvalOptions{
				Memo: memo, MemoSalt: MemoContext(db, f), Workers: 1,
				Trace: tr, Limits: eval.Limits{MaxTuples: budget},
			})
			if err != nil {
				t.Fatalf("first %s, run %d %s: %v", order[0].Filter, i, f.Filter, err)
			}
			if !got.Equal(want) {
				t.Fatalf("first %s, run %d %s:\n%s\nwant:\n%s", order[0].Filter, i, f.Filter, got.Dump(), want.Dump())
			}
			if peak := tr.Report("direct", 1, got.Len()).PeakTuples; peak > budget {
				t.Errorf("run %d %s: peak %d tuples, over the boxed memo path's %d", i, f.Filter, peak, budget)
			}
		}
		for _, rows := range memo.ext {
			if rows.N != extRows {
				t.Errorf("first %s: memoized %d extended rows, want all %d", order[0].Filter, rows.N, extRows)
			}
		}
		if memo.extHits != len(variants)-1 || memo.survHits != 1 {
			t.Errorf("first %s: %d extended hits, %d survivor hits; want %d and 1",
				order[0].Filter, memo.extHits, memo.survHits, len(variants)-1)
		}
	}
}

// TestMemoCrossKindParams: Int 1 and Float 1.0 are one parameter value
// (one dictionary ID), on the cold, replayed and survivor paths alike.
func TestMemoCrossKindParams(t *testing.T) {
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "A", "B")
	for _, row := range [][2]storage.Value{
		{storage.Int(1), storage.Int(1)}, {storage.Int(2), storage.Float(1)},
		{storage.Int(3), storage.Int(2)}, {storage.Int(3), storage.Float(2.5)},
		{storage.Int(4), storage.Float(2.5)},
	} {
		r.InsertValues(row[0], row[1])
	}
	db.Add(r)
	memo := newMapMemo()
	for _, threshold := range []int64{2, 1, 2} {
		f := countFlock(t, threshold)
		want, err := f.EvalNaive(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Eval(db, &EvalOptions{Memo: memo, MemoSalt: MemoContext(db, f)})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("COUNT >= %d:\n%s\nwant:\n%s", threshold, got.Dump(), want.Dump())
		}
	}
	if memo.extHits != 1 || memo.survHits != 1 {
		t.Errorf("want one extended and one survivor hit: %+v", memo)
	}
}

// TestMemoSaltSeparatesVersions checks invalidation-by-key-construction:
// after a data change and a version bump, MemoContext yields a fresh
// salt, so nothing from the old version is reused.
func TestMemoSaltSeparatesVersions(t *testing.T) {
	db := memoDB()
	memo := newMapMemo()
	f := countFlock(t, 3)

	old, err := f.Eval(db, &EvalOptions{Memo: memo, MemoSalt: MemoContext(db, f)})
	if err != nil {
		t.Fatal(err)
	}
	if old.Len() != 1 {
		t.Fatalf("pre-mutation answer:\n%s", old.Dump())
	}

	next := db.Clone()
	base, err := db.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	grown := base.Clone()
	grown.InsertValues(storage.Int(4), storage.Int(2))
	next.Add(grown)
	next.BumpVersion()
	if MemoContext(next, f) == MemoContext(db, f) {
		t.Fatal("version bump must change the memo salt")
	}

	got, err := f.Eval(next, &EvalOptions{Memo: memo, MemoSalt: MemoContext(next, f)})
	if err != nil {
		t.Fatal(err)
	}
	if memo.extHits != 0 || memo.survHits != 0 {
		t.Fatalf("post-mutation run reused stale entries: %+v", memo)
	}
	if got.Len() != 2 { // p=2 now has 3 baskets too
		t.Fatalf("post-mutation answer:\n%s", got.Dump())
	}
	// The old snapshot still answers from its own keys.
	if again, err := f.Eval(db, &EvalOptions{Memo: memo, MemoSalt: MemoContext(db, f)}); err != nil || !again.Equal(old) {
		t.Fatalf("old-version re-run: %v\n%s", err, again.Dump())
	}
	if memo.survHits == 0 {
		t.Fatal("old-version re-run should have hit its survivors")
	}
}

// TestMemoKeysAlphaInvariant: alpha-renamed unions derive the same
// extended key, and distinct data or parameter shapes do not collide.
func TestMemoKeysAlphaInvariant(t *testing.T) {
	mk := func(v string) datalog.Union {
		return datalog.Union{datalog.NewRule(
			datalog.NewAtom("answer", datalog.Var(v)),
			datalog.NewAtom("r", datalog.Var(v), datalog.Param("p")),
		)}
	}
	params := []datalog.Param{"p"}
	a := extendedKey("salt", params, mk("X"))
	b := extendedKey("salt", params, mk("Zed"))
	if a != b {
		t.Fatalf("alpha-renamed unions must share a key: %q vs %q", a, b)
	}
	if extendedKey("other", params, mk("X")) == a {
		t.Fatal("different salts must not collide")
	}
	f := countFlock(t, 2)
	if survivorKey(a, f.Filter) == survivorKey(a, countFlock(t, 3).Filter) {
		t.Fatal("different thresholds must use different survivor keys")
	}
	if survivorKey(a, f.Filter) != survivorKey(a, countFlock(t, 2).Filter) {
		t.Fatal("equal filters must share a survivor key")
	}
}
