package physical

import (
	"fmt"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// TestRuleShapesPinned pins, for each rule shape (joins, negation,
// comparison, constants, repeated variables), the executor's answer
// tuple-for-tuple in emission order — the order the boxed row operators
// this executor replaced produced — at every worker count.
func TestRuleShapesPinned(t *testing.T) {
	db := testDB()
	cases := []struct {
		name  string
		rule  string
		order []int
		want  string // fmt of the answer's tuples, in order
	}{
		{"chain", "answer(X,Z) :- e(X,Y) AND e(Y,Z)", []int{0, 1},
			"[(1, 3) (1, 4) (2, 4) (3, 1) (4, 2) (4, 3) (2, 1)]"},
		{"triangle", "answer(X,Y,Z) :- e(X,Y) AND e(Y,Z) AND e(Z,X)", []int{0, 1, 2},
			"[(1, 2, 4) (1, 3, 4) (3, 4, 1) (4, 1, 2) (4, 1, 3) (2, 4, 1)]"},
		{"neg-cmp", "answer(X,Y) :- e(X,Y) AND NOT blocked(Y) AND X < Y", []int{0},
			"[(1, 2) (1, 3) (2, 3)]"},
		{"const", "answer(Y) :- e(1,Y)", []int{0}, "[(2) (3)]"},
		{"label-join", "answer(X,L) :- e(X,Y) AND l(Y,L)", []int{0, 1},
			"[(1, b) (1, a) (2, a) (3, b) (4, a) (2, b)]"},
		{"self-loop", "answer(X) :- e(X,X)", []int{0}, "[]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := mustRule(t, c.rule)
			got := compileRun(t, db, r, c.order)
			if s := fmt.Sprint(got.Tuples()); s != c.want {
				t.Fatalf("answer %s, want %s", s, c.want)
			}
		})
	}
}

// TestMissingConstant covers the dictionary-miss path: a query constant
// absent from every stored relation matches nothing, without interning
// the constant into the dictionary.
func TestMissingConstant(t *testing.T) {
	db := testDB()
	dict, err := db.Dict()
	if err != nil {
		t.Fatal(err)
	}
	dictLen := dict.Len()
	for _, c := range []struct{ rule, want string }{
		{"answer(Y) :- e(99,Y)", "[]"},                             // dead scan constant
		{"answer(X,Y) :- l(X,L) AND e(X,Y) AND L = \"zzz\"", "[]"}, // dead comparison constant
		// negated const: never a member, keep all
		{"answer(X,Y) :- e(X,Y) AND NOT blocked(99)", "[(1, 2) (1, 3) (2, 3) (3, 4) (4, 1) (2, 4)]"},
	} {
		r := mustRule(t, c.rule)
		order := make([]int, len(r.PositiveAtoms()))
		for i := range order {
			order[i] = i
		}
		got := compileRun(t, db, r, order)
		if s := fmt.Sprint(got.Tuples()); s != c.want {
			t.Fatalf("%s: answer %s, want %s", c.rule, s, c.want)
		}
	}
	if dict.Len() != dictLen {
		t.Fatalf("query constants grew the dictionary: %d -> %d", dictLen, dict.Len())
	}
}

// TestCrossKindDup pins repeated-variable semantics: a repeated variable
// binds one equality class — the class AppendKey gives the joins and the
// dictionary gives its IDs — so a tuple pairing Int(1) with Float(1)
// satisfies e(X,X). This replaced an earlier deliberate kind-sensitive
// == — which made e(X,X) disagree with the equivalent self-join — see
// TestCrossKindRepeatedVariable in internal/eval.
func TestCrossKindDup(t *testing.T) {
	db := storage.NewDatabase()
	e := storage.NewRelation("e", "a", "b")
	e.InsertValues(storage.Int(1), storage.Float(1))
	e.InsertValues(storage.Int(2), storage.Int(2))
	e.InsertValues(storage.Int(3), storage.Int(4))
	db.Add(e)
	got := compileRun(t, db, mustRule(t, "answer(X) :- e(X,X)"), []int{0})
	if s := fmt.Sprint(got.Tuples()); s != "[(1) (2)]" {
		t.Fatalf("want the Int(1)/Float(1) and Int(2) rows, got %s", s)
	}
}

// TestIDCompareAcrossOrderedBoundary checks the comparison between two ID
// columns on both sides of the dictionary's order-exact prefix: IDs from
// the build compare as integers, IDs interned after it decode, and every
// verdict equals CmpOp.Eval on the values. A select between two binding
// columns over a relation holding both kinds keeps exactly the rows the
// boxed comparison keeps.
func TestIDCompareAcrossOrderedBoundary(t *testing.T) {
	built := []storage.Value{storage.Null(), storage.Int(-3), storage.Float(-0.5), storage.Int(2),
		storage.Float(2.5), storage.Str("a"), storage.Str("c")}
	late := []storage.Value{storage.Str("b"), storage.Float(1.5), storage.Int(-10),
		storage.Float(2), storage.Int(100), storage.Str("")}
	db := storage.NewDatabase()
	v := storage.NewRelation("v", "X")
	for _, x := range built {
		v.InsertValues(x)
	}
	db.Add(v)
	dict, err := db.Dict()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range late {
		dict.Intern(x)
	}
	if got, want := int(dict.OrderExactLen()), len(built); got != want || dict.Len() <= want {
		t.Fatalf("OrderExactLen = %d of %d IDs, want %d and later IDs past it", got, dict.Len(), want)
	}
	p := storage.NewRelation("p", "X", "Y")
	for _, x := range append(built, late...) {
		for _, y := range append(built, late...) {
			p.InsertValues(x, y)
		}
	}
	withP := db.Clone()
	withP.Add(p)
	for op := datalog.Lt; op <= datalog.Ne; op++ {
		cmp := newIDCompare(op, dict)
		for a := uint32(0); int(a) < dict.Len(); a++ {
			for b := uint32(0); int(b) < dict.Len(); b++ {
				if got, want := cmp.holds(a, b), op.Eval(dict.Value(a), dict.Value(b)); got != want {
					t.Fatalf("IDs %d %s %d = %v, values %v %s %v = %v", a, op, b, got, dict.Value(a), op, dict.Value(b), want)
				}
			}
		}
		scan := &ScanNode{Pred: "p", atom: "p(X,Y)", arity: 2, newPos: []int{0, 1}, cols: []string{"X", "Y"}}
		sel := &SelectNode{Probe: scan, desc: "X " + op.String() + " Y", op: op,
			left: argRef{src: srcCur, pos: 0}, right: argRef{src: srcCur, pos: 1}, cols: scan.cols}
		got, err := NewPlan(NewMaterialize("answer", sel, nil)).Run(&Ctx{DB: withP})
		if err != nil {
			t.Fatal(err)
		}
		want := storage.NewRelation("answer", "X", "Y")
		for _, tp := range p.Tuples() {
			if op.Eval(tp[0], tp[1]) {
				want.Insert(tp)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("select X %s Y kept %d rows, the boxed comparison %d", op, got.Len(), want.Len())
		}
	}
}
