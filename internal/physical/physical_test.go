package physical

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/obs"
	"queryflocks/internal/storage"
)

// testDB builds a small database: edges e(1..n source, target), node
// labels l(node, label), and a blocked(node) set for negation tests.
func testDB() *storage.Database {
	db := storage.NewDatabase()
	e := storage.NewRelation("e", "src", "dst")
	for _, p := range [][2]int64{{1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 1}, {2, 4}} {
		e.InsertValues(storage.Int(p[0]), storage.Int(p[1]))
	}
	db.Add(e)
	l := storage.NewRelation("l", "node", "label")
	for _, p := range []struct {
		n int64
		s string
	}{{1, "a"}, {2, "b"}, {3, "a"}, {4, "b"}} {
		l.InsertValues(storage.Int(p.n), storage.Str(p.s))
	}
	db.Add(l)
	blocked := storage.NewRelation("blocked", "node")
	blocked.InsertValues(storage.Int(4))
	db.Add(blocked)
	return db
}

func mustRule(t *testing.T, src string) *datalog.Rule {
	t.Helper()
	r, err := datalog.ParseRule(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return r
}

// compileRun compiles the rule over the given join order and runs the
// plan to a materialized answer.
func compileRun(t *testing.T, db *storage.Database, r *datalog.Rule, order []int) *storage.Relation {
	t.Helper()
	node, err := CompileRule(db, r, RuleOpts{Order: order, Out: r.Head.Args, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(NewMaterialize("answer", node, nil))
	rel, err := plan.Run(&Ctx{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestCompileRuleJoinChain(t *testing.T) {
	db := testDB()
	r := mustRule(t, "answer(X,Z) :- e(X,Y) AND e(Y,Z)")
	got := compileRun(t, db, r, []int{0, 1})
	want := storage.NewRelation("answer", "X", "Z")
	// Two-step paths over the edge set above.
	for _, p := range [][2]int64{{1, 3}, {1, 4}, {2, 4}, {2, 1}, {3, 1}, {4, 2}, {4, 3}} {
		want.InsertValues(storage.Int(p[0]), storage.Int(p[1]))
	}
	if !got.Equal(want) {
		t.Fatalf("answer:\n%s\nwant:\n%s", got.Dump(), want.Dump())
	}
}

func TestCompileRuleNegationAndComparison(t *testing.T) {
	db := testDB()
	r := mustRule(t, "answer(X,Y) :- e(X,Y) AND NOT blocked(Y) AND X < Y")
	got := compileRun(t, db, r, []int{0})
	want := storage.NewRelation("answer", "X", "Y")
	for _, p := range [][2]int64{{1, 2}, {1, 3}, {2, 3}} {
		want.InsertValues(storage.Int(p[0]), storage.Int(p[1]))
	}
	if !got.Equal(want) {
		t.Fatalf("answer:\n%s\nwant:\n%s", got.Dump(), want.Dump())
	}
}

// TestWorkerCountInvariance checks what the in-process partitions of a
// FILTER computation rely on: w concurrent runs of one compiled plan over
// one database, which share its dictionary and relation caches, each
// produce the sequential run's answer tuple for tuple, and the w runs of
// the plan compiled in w parts of X split that answer into disjoint
// parts. Run under -race.
func TestWorkerCountInvariance(t *testing.T) {
	db := testDB()
	r := mustRule(t, "answer(X,Z) :- e(X,Y) AND e(Y,Z) AND l(Z,L) AND NOT blocked(Z)")
	node, err := CompileRule(db, r, RuleOpts{Order: []int{0, 1, 2}, Out: r.Head.Args, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(NewMaterialize("answer", node, nil))
	base := compileRun(t, db, r, []int{0, 1, 2})
	for _, w := range []int{2, 3, 8} {
		splitNode, err := CompileRule(db, r, RuleOpts{Order: []int{0, 1, 2}, Out: r.Head.Args, Dedup: true, Split: "X", Parts: w})
		if err != nil {
			t.Fatal(err)
		}
		split := NewPlan(NewMaterialize("answer", splitNode, nil))
		got, parts := make([]*storage.Relation, w), make([]*storage.Relation, w)
		errs := make([]error, 2*w)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = plan.Run(&Ctx{DB: db.Clone()})
				parts[i], errs[w+i] = split.Run(&Ctx{DB: db, Part: i})
			}(i)
		}
		wg.Wait()
		union, n := storage.NewRelation("answer", base.Columns()...), 0
		for i, rel := range got {
			if errs[i] != nil || errs[w+i] != nil {
				t.Fatalf("workers=%d run %d: %v, %v", w, i, errs[i], errs[w+i])
			}
			if !sameOrder(rel, base) {
				t.Fatalf("workers=%d run %d: answer differs\ngot:\n%s\nwant:\n%s", w, i, rel.Dump(), base.Dump())
			}
			union.InsertAll(parts[i])
			n += parts[i].Len()
		}
		if n != base.Len() || !union.Equal(base) {
			t.Fatalf("workers=%d: %d rows in parts, union\n%s\nwant\n%s", w, n, union.Dump(), base.Dump())
		}
	}
}

// sameOrder reports whether two relations hold equal tuples in the same
// order.
func sameOrder(a, b *storage.Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, t := range a.Tuples() {
		if !t.Equal(b.Tuples()[i]) {
			return false
		}
	}
	return true
}

func TestUnionArityMismatch(t *testing.T) {
	db := testDB()
	r1 := mustRule(t, "a(X,Y) :- e(X,Y)")
	r2 := mustRule(t, "a(X) :- l(X,L)")
	n1, err := CompileRule(db, r1, RuleOpts{Order: []int{0}, Out: r1.Head.Args})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := CompileRule(db, r2, RuleOpts{Order: []int{0}, Out: r2.Head.Args})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewUnion([]Node{n1, n2}); err == nil {
		t.Fatal("union of 2-column and 1-column branches should fail")
	}
}

func TestCompileRuleErrors(t *testing.T) {
	db := testDB()
	r := mustRule(t, "answer(X,Z) :- e(X,Y) AND e(Y,Z)")
	if _, err := CompileRule(db, r, RuleOpts{Order: []int{0, 7}, Out: r.Head.Args}); err == nil {
		t.Error("out-of-range order index should fail")
	}
	if _, err := CompileRule(db, r, RuleOpts{Order: []int{0}, Out: r.Head.Args}); err == nil {
		t.Error("incomplete join order should fail")
	}
	unsafe := mustRule(t, "answer(X,W) :- e(X,Y)")
	if _, err := CompileRule(db, unsafe, RuleOpts{Order: []int{0}, Out: unsafe.Head.Args}); err == nil {
		t.Error("unsafe rule should fail")
	}
	if _, err := CompileRule(db, r, RuleOpts{Order: []int{0, 1}, Out: []datalog.Term{datalog.Var("Q")}}); err == nil {
		t.Error("projecting an unbound term should fail")
	}
}

// barrierAfterFirst is a BarrierFactory placing one barrier after the
// first joined atom: column 0 the parameter, column 1 the head, the
// policy's verdict fixed, the outcome captured.
func barrierAfterFirst(agg Aggregate, filter bool, got *BarrierOutcome) BarrierFactory {
	return func(atomIdx int, atom string, cols []string) *Barrier {
		if atomIdx != 0 {
			return nil
		}
		return &Barrier{
			Desc: "per src", ParamPos: []int{0}, HeadPos: []int{1}, Agg: agg,
			Decide: func(rows, assigns int) bool { return filter },
			Record: func(o BarrierOutcome) { *got = o },
		}
	}
}

// TestBarrier checks the dynamic-strategy surface: a decision barrier
// reports the exact intermediate relation's cardinalities to the policy,
// and on a filter verdict only the rows of passing assignments flow into
// downstream operators.
func TestBarrier(t *testing.T) {
	db := testDB()
	r := mustRule(t, "answer(X,Z) :- e(X,Y) AND e(Y,Z)")
	run := func(filter bool) (*storage.Relation, BarrierOutcome, *obs.RunReport) {
		var out BarrierOutcome
		node, err := CompileRule(db, r, RuleOpts{Order: []int{0, 1}, Out: r.Head.Args, Dedup: true,
			Barrier: barrierAfterFirst(countAtLeast2, filter, &out)})
		if err != nil {
			t.Fatal(err)
		}
		plan := NewPlan(NewMaterialize("answer", node, nil))
		if !strings.Contains(plan.Explain(), "materialize#5 bind1 [per src]") {
			t.Errorf("explain missing the barrier:\n%s", plan.Explain())
		}
		col := obs.NewCollector()
		rel, err := plan.Run(&Ctx{DB: db, Col: col})
		if err != nil {
			t.Fatal(err)
		}
		return rel, out, col.Report("test", 1, rel.Len())
	}

	// Sources 1 and 2 have two targets each, 3 and 4 one: the reduction
	// keeps four of the six edges.
	got, out, rep := run(true)
	if out.Wall <= 0 {
		t.Errorf("outcome of a collected run carries no wall time: %+v", out)
	}
	out.Wall = 0
	if want := (BarrierOutcome{ID: 5, Rows: 6, Assigns: 4, Filtered: true, RowsAfter: 4, AssignsAfter: 2}); out != want {
		t.Errorf("outcome %+v, want %+v", out, want)
	}
	want := storage.NewRelation("answer", "X", "Z")
	for _, p := range [][2]int64{{1, 3}, {1, 4}, {2, 4}, {2, 1}} {
		want.InsertValues(storage.Int(p[0]), storage.Int(p[1]))
	}
	if !got.Equal(want) {
		t.Fatalf("answer after the reduction:\n%s\nwant:\n%s", got.Dump(), want.Dump())
	}
	for _, e := range rep.Steps {
		if e.Op == obs.OpMaterialize && e.ID == 5 && (e.RowsIn != 6 || e.RowsOut != 4) {
			t.Errorf("barrier event %d -> %d rows, want 6 -> 4", e.RowsIn, e.RowsOut)
		}
	}

	got, out, _ = run(false)
	if out.Filtered || out.RowsAfter != 6 || out.AssignsAfter != 4 {
		t.Errorf("skip outcome %+v, want the input's 6 rows over 4 assignments", out)
	}
	if plain := compileRun(t, db, r, []int{0, 1}); got.Dump() != plain.Dump() {
		t.Fatalf("a barrier that skips changed the answer:\n%s\nwant:\n%s", got.Dump(), plain.Dump())
	}
}

// TestBarrierDeduplicatesInput feeds a barrier a stream with repeated rows
// (no rule pipeline produces one; a non-deduplicating projection does):
// the buffered relation is a set, so the policy hears of distinct rows
// and a repeated head tuple counts once towards its assignment.
func TestBarrierDeduplicatesInput(t *testing.T) {
	db := storage.NewDatabase()
	rel := storage.NewRelation("t", "P", "H", "Z")
	for _, r := range [][3]string{{"1", "a", "x"}, {"1", "a", "y"}, {"1", "b", "x"}, {"2", "a", "x"}, {"2", "a", "y"}} {
		rel.InsertValues(storage.Str(r[0]), storage.Str(r[1]), storage.Str(r[2]))
	}
	db.Add(rel)
	scan := &ScanNode{Pred: "t", atom: "t(P,H,Z)", arity: 3, newPos: []int{0, 1, 2}, cols: []string{"P", "H", "Z"}}
	proj := &ProjectNode{Probe: scan, pos: []int{0, 1}, cols: []string{"P", "H"}}
	var out BarrierOutcome
	barrier := NewBarrier("b", proj, &Barrier{
		ParamPos: []int{0}, HeadPos: []int{1}, Agg: countAtLeast2,
		Decide: func(rows, assigns int) bool { return true },
		Record: func(o BarrierOutcome) { out = o },
	})
	col := obs.NewCollector()
	got, err := NewPlan(NewMaterialize("answer", barrier, nil)).Run(&Ctx{DB: db, Col: col})
	if err != nil {
		t.Fatal(err)
	}
	// (1,a) (1,b) (2,a): P=1 has two head tuples, P=2 one, seen twice.
	if out.Rows != 3 || out.Assigns != 2 || out.RowsAfter != 2 || out.AssignsAfter != 1 {
		t.Errorf("outcome %+v, want 3 rows over 2 assignments reduced to 2 over 1", out)
	}
	if s := fmt.Sprint(got.Tuples()); s != "[(1, a) (1, b)]" {
		t.Errorf("answer %s, want [(1, a) (1, b)]", s)
	}
	for _, e := range col.Events() {
		if e.Op == obs.OpMaterialize && e.Desc == "b" && (e.RowsIn != 5 || e.RowsOut != 2) {
			t.Errorf("barrier event %d -> %d rows, want 5 -> 2", e.RowsIn, e.RowsOut)
		}
	}
}

// countAtLeast2 counts distinct head tuples (the group operator dedups)
// and passes at two, short-circuiting as soon as the bound is hit.
var countAtLeast2 = Aggregate{Kind: AggCount, Col: -1, Monotone: true,
	Op: datalog.Ge, Threshold: storage.Int(2)}

func TestGroupOperator(t *testing.T) {
	db := testDB()
	// Group edges by source; sources with >= 2 distinct targets pass.
	r := mustRule(t, "answer(X,Y) :- e(X,Y)")
	node, err := CompileRule(db, r, RuleOpts{Order: []int{0}, Out: r.Head.Args})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := NewGroup("grp", 1, countAtLeast2, "count >= 2", node)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(NewMaterialize("grp", grp, nil))
	col := obs.NewCollector()
	got, err := plan.Run(&Ctx{DB: db, Col: col})
	if err != nil {
		t.Fatal(err)
	}
	want := storage.NewRelation("grp", "X")
	want.InsertValues(storage.Int(1))
	want.InsertValues(storage.Int(2))
	if !got.Equal(want) {
		t.Fatalf("groups:\n%s\nwant:\n%s", got.Dump(), want.Dump())
	}
	rep := col.Report("test", 1, got.Len())
	if rep.PeakTuples <= 0 {
		t.Errorf("peak_tuples = %d, want > 0", rep.PeakTuples)
	}
}

// TestSelectAndAntiJoinOperators drives the standalone Select and
// AntiJoin operators (normally preempted by scan-time absorption) with a
// hand-built pipeline: scan e, keep X < Y, drop blocked targets.
func TestSelectAndAntiJoinOperators(t *testing.T) {
	db := testDB()
	scan := &ScanNode{Pred: "e", atom: "e(X,Y)", arity: 2, newPos: []int{0, 1}, cols: []string{"X", "Y"}}
	sel := &SelectNode{Probe: scan, desc: "X < Y", op: datalog.Lt,
		left: argRef{src: srcCur, pos: 0}, right: argRef{src: srcCur, pos: 1}, cols: scan.cols}
	anti := &AntiJoinNode{Probe: sel, Pred: "blocked", atom: "NOT blocked(Y)", arity: 1,
		srcPos: []int{1}, constVal: make([]storage.Value, 1), cols: sel.cols}
	got, err := NewPlan(NewMaterialize("answer", anti, nil)).Run(&Ctx{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	want := storage.NewRelation("answer", "X", "Y")
	for _, p := range [][2]int64{{1, 2}, {1, 3}, {2, 3}} {
		want.InsertValues(storage.Int(p[0]), storage.Int(p[1]))
	}
	if !got.Equal(want) {
		t.Fatalf("answer:\n%s\nwant:\n%s", got.Dump(), want.Dump())
	}
}

func TestExplainTreeShape(t *testing.T) {
	db := testDB()
	r := mustRule(t, "answer(X,Z) :- e(X,Y) AND e(Y,Z) AND NOT blocked(Z) AND X < Z")
	node, err := CompileRule(db, r, RuleOpts{Order: []int{0, 1}, Out: r.Head.Args, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(NewMaterialize("answer", node, nil))
	out := plan.Explain()
	for _, want := range []string{"materialize#1 answer", "project#", "join#", "build#", "scan#", "absorbed"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// IDs are preorder and unique.
	seen := map[int]bool{}
	for _, n := range plan.Nodes() {
		id := plan.NodeID(n)
		if id <= 0 || seen[id] {
			t.Fatalf("bad or duplicate node id %d", id)
		}
		seen[id] = true
	}
}

// TestOperatorEventsOrder checks operators report themselves leaf-first
// with their plan-node ids attached.
func TestOperatorEventsOrder(t *testing.T) {
	db := testDB()
	r := mustRule(t, "answer(X,Z) :- e(X,Y) AND e(Y,Z)")
	node, err := CompileRule(db, r, RuleOpts{Order: []int{0, 1}, Out: r.Head.Args, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(NewMaterialize("answer", node, nil))
	col := obs.NewCollector()
	if _, err := plan.Run(&Ctx{DB: db, Col: col}); err != nil {
		t.Fatal(err)
	}
	rep := col.Report("test", 1, 0)
	var ops []string
	for _, s := range rep.Steps {
		ops = append(ops, string(s.Op))
		if s.ID <= 0 {
			t.Errorf("%s event missing plan-node id", s.Op)
		}
	}
	want := []string{"scan", "build", "join", "project", "materialize"}
	if strings.Join(ops, ",") != strings.Join(want, ",") {
		t.Errorf("event order %v, want %v", ops, want)
	}
}
