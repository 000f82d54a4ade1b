package physical

import (
	"reflect"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// testAggs returns one aggregate per kind over head column 0 of
// answer(V,W) :- r(P,V,W), thresholds chosen so that 1..5 passes each and
// small subsets do not.
func testAggs() map[string]Aggregate {
	return map[string]Aggregate{
		"count-star":     {Kind: AggCount, Col: -1, Monotone: true, Op: datalog.Ge, Threshold: storage.Int(3)},
		"count-distinct": {Kind: AggCountDistinct, Monotone: true, Op: datalog.Ge, Threshold: storage.Int(3)},
		"sum":            {Kind: AggSum, Monotone: true, Op: datalog.Ge, Threshold: storage.Int(9)},
		"min":            {Kind: AggMin, Monotone: true, Op: datalog.Le, Threshold: storage.Int(1)},
		"max":            {Kind: AggMax, Monotone: true, Op: datalog.Ge, Threshold: storage.Int(5)},
		"count-eq":       {Kind: AggCountDistinct, Op: datalog.Eq, Threshold: storage.Int(5)}, // not monotone
	}
}

// row is one r(P,V,W) tuple.
type row struct {
	p    storage.Value
	v, w int64
}

func rowsDB(rows []row) *storage.Database {
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "P", "V", "W")
	for _, x := range rows {
		r.InsertValues(x.p, storage.Int(x.v), storage.Int(x.w))
	}
	db.Add(r)
	return db
}

// groupPlan compiles answer(V,W) :- r(P,V,W) grouped by P under agg.
func groupPlan(t *testing.T, db *storage.Database, agg Aggregate) *GroupNode {
	t.Helper()
	r := mustRule(t, "answer(V,W) :- r(P,V,W)")
	out := []datalog.Term{datalog.Var("P"), datalog.Var("V"), datalog.Var("W")}
	node, err := CompileRule(db, r, RuleOpts{Order: []int{0}, Out: out})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := NewGroup("g", 1, agg, "test", node)
	if err != nil {
		t.Fatal(err)
	}
	return grp
}

func verdicts(t *testing.T, rows []row, agg Aggregate) *storage.Relation {
	t.Helper()
	db := rowsDB(rows)
	rel, err := NewPlan(NewMaterialize("g", groupPlan(t, db, agg), nil)).Run(&Ctx{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func export(t *testing.T, rows []row, agg Aggregate, additive bool) *GroupStates {
	t.Helper()
	db := rowsDB(rows)
	st, err := NewPlan(groupPlan(t, db, agg)).ExportGroups(&Ctx{DB: db}, additive)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMergeGroupStatesMatchesOneStream is the scatter soundness core: for
// every aggregate, splitting the input rows across parts — including
// empty parts, parts that miss a group, a negative weight that undoes
// another part's passing sum, and a value two parts both count — and
// merging the exported states reproduces the one-stream verdicts.
func TestMergeGroupStatesMatchesOneStream(t *testing.T) {
	p, q := storage.Str("p"), storage.Str("q")
	var all []row
	for v := int64(1); v <= 5; v++ {
		all = append(all, row{p, v, 10 * v})
	}
	all = append(all, row{q, 12, 1}, row{q, -7, 2}, row{p, 5, 7})
	splits := [][][]row{
		{all},
		{all[:2], all[2:]},
		{nil, all, nil},
		{all[:1], nil, all[1:3], all[3:]},
		{all[5:6], all[6:7], all[:5], all[7:]}, // q's 12 and -7 apart; p's V=5 on two parts
	}
	for name, agg := range testAggs() {
		want := verdicts(t, all, agg)
		for si, split := range splits {
			parts := make([]*GroupStates, len(split))
			for i, chunk := range split {
				parts[i] = export(t, chunk, agg, false)
			}
			got, groups, err := MergeGroupStates(agg, false, "g", []string{"P"}, parts)
			if err != nil {
				t.Fatalf("%s split %d: %v", name, si, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s split %d: merged verdicts\n%s\nwant\n%s", name, si, got.Dump(), want.Dump())
			}
			if groups != 2 {
				t.Errorf("%s split %d: %d merged groups, want 2", name, si, groups)
			}
		}
	}
}

// TestExportAdditiveCountDistinct: parts disjoint on the counted column
// ship one integer per group, and the merge sums them to the distinct
// count of the whole; a done group ships nothing in either form.
func TestExportAdditiveCountDistinct(t *testing.T) {
	p := storage.Str("p")
	agg := testAggs()["count-eq"]
	a := []row{{p, 1, 0}, {p, 2, 0}, {p, 2, 1}}
	b := []row{{p, 3, 0}, {p, 4, 0}, {p, 5, 0}}
	want := verdicts(t, append(append([]row(nil), a...), b...), agg)
	if want.Len() != 1 {
		t.Fatalf("degenerate oracle: %s", want.Dump())
	}
	sa, sb := export(t, a, agg, true), export(t, b, agg, true)
	if sa.Kind != StateCount || !reflect.DeepEqual(sa.Count, []int64{2}) || sa.SetVals != nil {
		t.Errorf("additive export = %+v, want one count of 2 and no value set", sa)
	}
	got, _, err := MergeGroupStates(agg, true, "g", []string{"P"}, []*GroupStates{sa, sb})
	if err != nil || !got.Equal(want) {
		t.Errorf("additive merge = %v, %v; want %s", got, err, want.Dump())
	}
	if set := export(t, a, agg, false); set.Kind != StateSet || len(set.SetVals) != 2 {
		t.Errorf("non-additive export = %+v, want a 2-value set", set)
	}
	// A set answer where a count was asked for must not be summed.
	if _, _, err := MergeGroupStates(agg, true, "g", []string{"P"}, []*GroupStates{sa, export(t, b, agg, false)}); err == nil {
		t.Error("merge accepted a part of the wrong state kind")
	}

	mono := testAggs()["count-distinct"]
	for _, additive := range []bool{true, false} {
		done := export(t, []row{{p, 1, 0}, {p, 2, 0}, {p, 3, 0}, {p, 4, 0}}, mono, additive)
		if !done.Done[0] || len(done.SetVals) != 0 || (done.Count != nil && done.Count[0] != 0) {
			t.Errorf("additive=%v: done group ships %+v, want flags only", additive, done)
		}
	}
}

// TestMergeNormalizesAcrossParts: a parameter one part holds as the int 1
// and another as the float 1.0 is one group, and the same goes for a
// counted value — what AppendKey guarantees inside one dictionary.
func TestMergeNormalizesAcrossParts(t *testing.T) {
	agg := testAggs()["count-distinct"]
	a := &GroupStates{Kind: StateSet, Lits: []storage.Value{storage.Int(1), storage.Int(7), storage.Int(8)},
		Params: [][]uint32{{0}}, Done: []bool{false}, SetEnd: []uint32{2}, SetVals: []uint32{1, 2}}
	b := &GroupStates{Kind: StateSet, Lits: []storage.Value{storage.Float(8), storage.Float(1), storage.Int(9)},
		Params: [][]uint32{{1}}, Done: []bool{false}, SetEnd: []uint32{2}, SetVals: []uint32{0, 2}}
	got, groups, err := MergeGroupStates(agg, false, "g", []string{"P"}, []*GroupStates{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if groups != 1 || got.Len() != 1 || !got.Tuples()[0][0].Equal(storage.Int(1)) {
		t.Errorf("merged %d groups, answer %s; want the single group 1 passing on {7,8,9}", groups, got.Dump())
	}
	// 8 and 8.0 are one value: without 9 the group holds two, not three.
	b.SetEnd, b.SetVals = []uint32{1}, []uint32{0}
	if got, _, _ = MergeGroupStates(agg, false, "g", []string{"P"}, []*GroupStates{a, b}); got.Len() != 0 {
		t.Errorf("8 and 8.0 were counted apart: %s", got.Dump())
	}
}

// TestUnboxedVerdictTable checks the COUNT and SUM verdicts, which compare
// the group's count or sum against the threshold without boxing it,
// against the boxed comparison core.Filter makes, Op.Eval(Int(n) or
// Float(sum), Threshold), for every operator and Int and Float
// thresholds on both sides of the aggregates.
func TestUnboxedVerdictTable(t *testing.T) {
	thresholds := []storage.Value{storage.Int(0), storage.Int(20), storage.Int(-3),
		storage.Float(19.5), storage.Float(20.0), storage.Float(-0.5)}
	sums := []float64{-20.5, -3, -0.5, -0.25, 0, 0.25, 0.5, 19.5, 19.75, 20, 20.5, 1e18}
	for op := datalog.Lt; op <= datalog.Ne; op++ {
		for _, th := range thresholds {
			for _, kind := range []AggKind{AggCount, AggCountDistinct} {
				agg := Aggregate{Kind: kind, Op: op, Threshold: th}
				for n := int64(0); n <= 64; n++ {
					if got, want := agg.passes(&groupState{n: n}, nil), op.Eval(storage.Int(n), th); got != want {
						t.Fatalf("kind %d: count %d %s %v = %v, boxed %v", kind, n, op, th, got, want)
					}
				}
			}
			agg := Aggregate{Kind: AggSum, Op: op, Threshold: th}
			for _, sum := range sums {
				if got, want := agg.passes(&groupState{sum: sum, has: true}, nil), op.Eval(storage.Float(sum), th); got != want {
					t.Fatalf("sum %v %s %v = %v, boxed %v", sum, op, th, got, want)
				}
			}
			if agg.passes(&groupState{}, nil) {
				t.Fatalf("SUM over no value passed %s %v", op, th)
			}
		}
	}
}

// TestMergePanicReachesCaller: the buckets merge on goroutines of their
// own, and a panic there (here an unsound part whose parameter indexes
// past its literals) must surface on the caller's goroutine, where the
// serving layer's recovery turns it into a 500, not kill the process.
func TestMergePanicReachesCaller(t *testing.T) {
	bad := &GroupStates{Kind: StateCount, Params: [][]uint32{{5}}, Done: []bool{false}, Count: []int64{1}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic reached the caller")
		}
	}()
	MergeGroupStates(testAggs()["count-star"], false, "g", []string{"P"}, []*GroupStates{bad, bad})
}
