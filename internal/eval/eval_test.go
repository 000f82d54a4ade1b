package eval

import (
	"math/rand"
	"strings"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// basketsDB builds the tiny market-basket database used across tests.
//
//	basket 1: beer, diapers, relish
//	basket 2: beer, diapers
//	basket 3: beer
func basketsDB() *storage.Database {
	b := storage.NewRelation("baskets", "BID", "Item")
	add := func(bid int64, items ...string) {
		for _, it := range items {
			b.InsertValues(storage.Int(bid), storage.Str(it))
		}
	}
	add(1, "beer", "diapers", "relish")
	add(2, "beer", "diapers")
	add(3, "beer")
	db := storage.NewDatabase()
	db.Add(b)
	return db
}

func mustRule(t *testing.T, src string) *datalog.Rule {
	t.Helper()
	r, err := datalog.ParseRule(src)
	if err != nil {
		t.Fatalf("ParseRule(%q): %v", src, err)
	}
	return r
}

func TestEvalGroundBaskets(t *testing.T) {
	db := basketsDB()
	r := mustRule(t, "answer(B) :- baskets(B,beer) AND baskets(B,diapers)")
	got, err := EvalGround(db, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]storage.Value{{storage.Int(1)}, {storage.Int(2)}}
	if got.Len() != len(want) {
		t.Fatalf("got %d tuples: %s", got.Len(), got.Dump())
	}
	for _, w := range want {
		if !got.Contains(storage.Tuple(w)) {
			t.Errorf("missing %v", w)
		}
	}
}

func TestEvalRuleWithParams(t *testing.T) {
	db := basketsDB()
	r := mustRule(t, "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2")
	// Project onto ($1, $2, B): the extended answer used by flocks.
	out := []datalog.Term{datalog.Param("1"), datalog.Param("2"), datalog.Var("B")}
	got, err := EvalRule(db, r, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs in lexicographic order with their baskets:
	// (beer,diapers):1,2 (beer,relish):1 (diapers,relish):1
	if got.Len() != 4 {
		t.Fatalf("got %d tuples:\n%s", got.Len(), got.Dump())
	}
	if !got.Contains(storage.Tuple{storage.Str("beer"), storage.Str("diapers"), storage.Int(2)}) {
		t.Error("missing (beer,diapers,2)")
	}
	if got.Contains(storage.Tuple{storage.Str("diapers"), storage.Str("beer"), storage.Int(1)}) {
		t.Error("arithmetic subgoal failed to order the pair")
	}
}

func TestEvalNegation(t *testing.T) {
	db := basketsDB()
	// Baskets containing beer but not diapers.
	r := mustRule(t, "answer(B) :- baskets(B,beer) AND NOT baskets(B,diapers)")
	got, err := EvalGround(db, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(storage.Tuple{storage.Int(3)}) {
		t.Fatalf("got %s", got.Dump())
	}
}

func TestEvalMedicalExample(t *testing.T) {
	// Example 2.2: patients with a symptom unexplained by their disease.
	db := storage.NewDatabase()
	diagnoses := storage.NewRelation("diagnoses", "Patient", "Disease")
	exhibits := storage.NewRelation("exhibits", "Patient", "Symptom")
	treatments := storage.NewRelation("treatments", "Patient", "Medicine")
	causes := storage.NewRelation("causes", "Disease", "Symptom")
	for _, rel := range []*storage.Relation{diagnoses, exhibits, treatments, causes} {
		db.Add(rel)
	}
	// Patient 1 has flu which causes fever; exhibits fever (explained) and
	// rash (unexplained); takes drugA.
	diagnoses.InsertValues(storage.Int(1), storage.Str("flu"))
	exhibits.InsertValues(storage.Int(1), storage.Str("fever"))
	exhibits.InsertValues(storage.Int(1), storage.Str("rash"))
	treatments.InsertValues(storage.Int(1), storage.Str("drugA"))
	causes.InsertValues(storage.Str("flu"), storage.Str("fever"))
	// Patient 2 has cold (causes cough); exhibits rash; takes drugA.
	diagnoses.InsertValues(storage.Int(2), storage.Str("cold"))
	exhibits.InsertValues(storage.Int(2), storage.Str("rash"))
	treatments.InsertValues(storage.Int(2), storage.Str("drugA"))
	causes.InsertValues(storage.Str("cold"), storage.Str("cough"))

	r := mustRule(t, `answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND diagnoses(P,D) AND NOT causes(D,$s)`)
	out := []datalog.Term{datalog.Param("s"), datalog.Param("m"), datalog.Var("P")}
	got, err := EvalRule(db, r, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (rash, drugA) for patients 1 and 2; fever is explained for patient 1.
	if got.Len() != 2 {
		t.Fatalf("got:\n%s", got.Dump())
	}
	for _, p := range []int64{1, 2} {
		if !got.Contains(storage.Tuple{storage.Str("rash"), storage.Str("drugA"), storage.Int(p)}) {
			t.Errorf("missing (rash, drugA, %d)", p)
		}
	}
}

func TestEvalUnionFig4Shape(t *testing.T) {
	db := storage.NewDatabase()
	inTitle := storage.NewRelation("inTitle", "D", "W")
	inAnchor := storage.NewRelation("inAnchor", "A", "W")
	link := storage.NewRelation("link", "A", "D1", "D2")
	db.Add(inTitle)
	db.Add(inAnchor)
	db.Add(link)
	// doc d1 title: apple banana; anchor a1 (text: apple) links d0 -> d1.
	inTitle.InsertValues(storage.Str("d1"), storage.Str("apple"))
	inTitle.InsertValues(storage.Str("d1"), storage.Str("banana"))
	inAnchor.InsertValues(storage.Str("a1"), storage.Str("apple"))
	link.InsertValues(storage.Str("a1"), storage.Str("d0"), storage.Str("d1"))

	u, err := datalog.ParseUnion(`
		answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
		answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
		answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2`)
	if err != nil {
		t.Fatal(err)
	}
	outFor := func(r *datalog.Rule) []datalog.Term {
		return []datalog.Term{datalog.Param("1"), datalog.Param("2"), r.Head.Args[0]}
	}
	got, err := EvalUnion(db, u, outFor, &Options{Exec: ExecMaterialize})
	if err != nil {
		t.Fatal(err)
	}
	// Rule 1: (apple,banana,d1). Rule 2: (apple,banana,a1) [anchor apple,
	// title banana] and (apple,apple,... no: $1<$2 required). Rule 3:
	// (apple,apple) fails; anchor word apple as $2 needs title $1 < apple:
	// none. So: 2 tuples.
	if got.Len() != 2 {
		t.Fatalf("got:\n%s", got.Dump())
	}
	if !got.Contains(storage.Tuple{storage.Str("apple"), storage.Str("banana"), storage.Str("d1")}) {
		t.Error("missing title-title pair")
	}
	if !got.Contains(storage.Tuple{storage.Str("apple"), storage.Str("banana"), storage.Str("a1")}) {
		t.Error("missing anchor-title pair")
	}
}

func TestEvalErrors(t *testing.T) {
	db := basketsDB()
	// Unsafe rule.
	if _, err := EvalRule(db, mustRule(t, "answer(X) :- baskets(B,$1)"), nil, nil); err == nil {
		t.Error("unsafe rule should error")
	}
	// Missing relation.
	if _, err := EvalRule(db, mustRule(t, "answer(X) :- nosuch(X)"), nil, nil); err == nil {
		t.Error("missing relation should error")
	}
	// Arity mismatch.
	if _, err := EvalRule(db, mustRule(t, "answer(X) :- baskets(X)"), nil, nil); err == nil {
		t.Error("arity mismatch should error")
	}
	// Parameters left unprojected are an error only via EvalGround.
	if _, err := EvalGround(db, mustRule(t, "answer(B) :- baskets(B,$1)"), nil); err == nil {
		t.Error("EvalGround with params should error")
	}
	// Projection onto an unbound term.
	r := mustRule(t, "answer(B) :- baskets(B,$1)")
	if _, err := EvalRule(db, r, []datalog.Term{datalog.Var("Z")}, nil); err == nil {
		t.Error("projecting unbound term should error")
	}
	// Projection onto a constant.
	if _, err := EvalRule(db, r, []datalog.Term{datalog.CInt(1)}, nil); err == nil {
		t.Error("projecting constant should error")
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	db := storage.NewDatabase()
	e := storage.NewRelation("e", "X", "Y")
	e.InsertValues(storage.Int(1), storage.Int(1)) // self-loop
	e.InsertValues(storage.Int(1), storage.Int(2))
	e.InsertValues(storage.Int(2), storage.Int(1))
	db.Add(e)
	r := mustRule(t, "answer(X) :- e(X,X)")
	got, err := EvalGround(db, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(storage.Tuple{storage.Int(1)}) {
		t.Fatalf("self-loop query got:\n%s", got.Dump())
	}
}

func TestEvalCrossProduct(t *testing.T) {
	db := storage.NewDatabase()
	a := storage.NewRelation("a", "X")
	b := storage.NewRelation("b", "Y")
	a.InsertValues(storage.Int(1))
	a.InsertValues(storage.Int(2))
	b.InsertValues(storage.Str("u"))
	b.InsertValues(storage.Str("v"))
	db.Add(a)
	db.Add(b)
	r := mustRule(t, "answer(X,Y) :- a(X) AND b(Y)")
	got, err := EvalGround(db, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 {
		t.Fatalf("cross product size %d, want 4", got.Len())
	}
}

func TestEvalConstOnlyComparison(t *testing.T) {
	db := basketsDB()
	rTrue := mustRule(t, "answer(B) :- baskets(B,beer) AND 1 < 2")
	got, err := EvalGround(db, rTrue, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Errorf("true constant comparison: %d tuples, want 3", got.Len())
	}
	rFalse := mustRule(t, "answer(B) :- baskets(B,beer) AND 2 < 1")
	got, err = EvalGround(db, rFalse, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("false constant comparison: %d tuples, want 0", got.Len())
	}
}

func TestJoinOrderSmallFirst(t *testing.T) {
	db := basketsDB()
	small := storage.NewRelation("small", "Item")
	small.InsertValues(storage.Str("beer"))
	db.Add(small)
	r := mustRule(t, "answer(B) :- baskets(B,I) AND small(I)")

	order, err := JoinOrder(db, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 {
		t.Errorf("order = %v, want small first", order)
	}
}

func TestGreedyOrderDisconnected(t *testing.T) {
	db := storage.NewDatabase()
	for _, spec := range []struct {
		name string
		n    int
	}{{"big", 10}, {"tiny", 1}, {"mid", 5}} {
		rel := storage.NewRelation(spec.name, "X"+spec.name)
		for i := 0; i < spec.n; i++ {
			rel.InsertValues(storage.Int(int64(i)))
		}
		db.Add(rel)
	}
	r := mustRule(t, "answer(Xbig,Xtiny,Xmid) :- big(Xbig) AND tiny(Xtiny) AND mid(Xmid)")
	order, err := JoinOrder(db, r)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 {
		t.Errorf("greedy should start with tiny; got %v", order)
	}
}

func TestTrace(t *testing.T) {
	db := basketsDB()
	r := mustRule(t, "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2")
	tr := &Trace{}
	out := []datalog.Term{datalog.Param("1"), datalog.Param("2"), datalog.Var("B")}
	if _, err := EvalRule(db, r, out, &Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	// The streaming executor records every physical operator: scan, index
	// build, join, projection, and the answer sink. The $1 < $2 comparison
	// is absorbed into the join of the second atom.
	events := tr.Events()
	if len(events) != 5 {
		t.Fatalf("trace events = %d: %+v", len(events), events)
	}
	if !strings.Contains(events[2].Label(), "absorbed") {
		t.Errorf("join step should note the absorbed comparison: %q", events[2].Label())
	}
	if events[len(events)-1].RowsOut <= 0 {
		t.Error("the answer sink should report its rows")
	}
}

func TestExecutorStepwise(t *testing.T) {
	db := basketsDB()
	r := mustRule(t, "answer(B) :- baskets(B,$1) AND baskets(B,$2)")
	ex, err := newExecutor(db, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.joinNext(0); err != nil {
		t.Fatal(err)
	}
	if err := ex.joinNext(0); err == nil {
		t.Error("double join should error")
	}
	if err := ex.joinNext(5); err == nil {
		t.Error("out-of-range join should error")
	}
	if err := ex.joinNext(1); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.finish([]datalog.Term{datalog.Param("1"), datalog.Param("2")}); err != nil {
		t.Errorf("finish after completion: %v", err)
	}
}

func TestFinishBeforeDone(t *testing.T) {
	db := basketsDB()
	r := mustRule(t, "answer(B) :- baskets(B,$1) AND baskets(B,$2)")
	ex, err := newExecutor(db, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.finish(nil); err == nil {
		t.Error("finish before all joins should error")
	}
}

// TestAntiJoinDirect drives the anti-join operator directly (in rule
// evaluation negations are usually absorbed into scans, so this is the
// only way to reach it on a large binding relation) and checks it keeps
// exactly the bindings the negated relation lacks, in binding order.
func TestAntiJoinDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := storage.NewDatabase()
	ban := storage.NewRelation("ban", "A", "B")
	for i := 0; i < 900; i++ {
		ban.InsertValues(storage.Int(int64(rng.Intn(60))), storage.Int(int64(rng.Intn(60))))
	}
	db.Add(ban)

	cur := storage.NewRelation("cur", "A", "B")
	for i := 0; i < 3_000; i++ {
		cur.InsertValues(storage.Int(int64(rng.Intn(60))), storage.Int(int64(rng.Intn(60))))
	}
	atom := &datalog.Atom{Pred: "ban", Args: []datalog.Term{datalog.Var("A"), datalog.Var("B")}}

	got, err := antiJoin(db, cur, atom, "out")
	if err != nil {
		t.Fatal(err)
	}
	var want []storage.Tuple
	for _, ct := range cur.Tuples() {
		if !ban.Contains(ct) {
			want = append(want, ct)
		}
	}
	if len(want) == 0 || len(want) == cur.Len() {
		t.Fatalf("degenerate anti-join: %d of %d survive", len(want), cur.Len())
	}
	if got.Len() != len(want) {
		t.Fatalf("%d tuples, want %d", got.Len(), len(want))
	}
	for i, tu := range got.Tuples() {
		if !tu.Equal(want[i]) {
			t.Fatalf("tuple %d is %v, want %v", i, tu, want[i])
		}
	}
}

// TestJoinAtomConstantAndRepeatedVar drives joinAtom directly with a
// constant argument and a repeated variable, the classification branches
// the EvalRule rules above don't reach, and checks it against a nested
// loop.
func TestJoinAtomConstantAndRepeatedVar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := storage.NewDatabase()
	s := storage.NewRelation("s", "B", "C", "D")
	for i := 0; i < 2_000; i++ {
		b := storage.Int(int64(rng.Intn(40)))
		c := storage.Int(int64(rng.Intn(6)))
		d := storage.Int(int64(rng.Intn(40)))
		if rng.Intn(3) == 0 {
			d = b // feed the repeated-variable dup check
		}
		s.Insert(storage.Tuple{b, c, d})
	}
	db.Add(s)

	cur := storage.NewRelation("cur", "B")
	for i := 0; i < 1_000; i++ {
		cur.InsertValues(storage.Int(int64(rng.Intn(40))))
	}
	// s(B, 3, B): probe on bound B, constant 3, and D forced equal to B.
	atom := &datalog.Atom{Pred: "s", Args: []datalog.Term{
		datalog.Var("B"), datalog.Const{Val: storage.Int(3)}, datalog.Var("B"),
	}}

	got, err := joinAtom(db, cur, atom, "out", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := storage.NewRelation("want", "B")
	for _, ct := range cur.Tuples() {
		for _, st := range s.Tuples() {
			if st[0].Equal(ct[0]) && st[1].Equal(storage.Int(3)) && st[2].Equal(ct[0]) {
				want.Insert(ct)
			}
		}
	}
	if want.Len() == 0 {
		t.Fatal("degenerate join: no matches")
	}
	if !got.Equal(want) {
		t.Fatalf("%d tuples, want %d", got.Len(), want.Len())
	}
}
