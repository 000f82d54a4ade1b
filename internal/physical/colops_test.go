package physical

import (
	"fmt"
	"testing"

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
			for _, w := range []int{1, 2, 8} {
				got := compileRun(t, db, r, c.order, w)
				if s := fmt.Sprint(got.Tuples()); s != c.want {
					t.Fatalf("workers=%d answer %s, want %s", w, s, c.want)
				}
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
		got := compileRun(t, db, r, order, 1)
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
	got := compileRun(t, db, mustRule(t, "answer(X) :- e(X,X)"), []int{0}, 1)
	if s := fmt.Sprint(got.Tuples()); s != "[(1) (2)]" {
		t.Fatalf("want the Int(1)/Float(1) and Int(2) rows, got %s", s)
	}
}
