package eval

import (
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// TestCrossKindJoin is the regression for the kind-sensitive join keys:
// Compare/Equal treat Int(1) and Float(1) as the same value, but the hash
// keys used to tag kinds, so a join between an int column and a float
// column silently dropped the matches that a comparison subgoal (which
// goes through Compare) would have admitted. The key encoding now
// normalizes integral floats onto the int encoding, so joins agree with
// Compare.
func TestCrossKindJoin(t *testing.T) {
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "A", "B")
	r.InsertValues(storage.Int(1), storage.Str("int1"))
	r.InsertValues(storage.Int(2), storage.Str("int2"))
	r.InsertValues(storage.Float(2.5), storage.Str("half"))
	s := storage.NewRelation("s", "A", "C")
	s.InsertValues(storage.Float(1), storage.Str("float1"))
	s.InsertValues(storage.Int(2), storage.Str("alsoint"))
	s.InsertValues(storage.Float(2.5), storage.Str("halfc"))
	db.Add(r)
	db.Add(s)

	rule, err := datalog.ParseRule(`answer(B,C) :- r(A,B) AND s(A,C)`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvalRule(db, rule, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"int1", "float1"}, {"int2", "alsoint"}, {"half", "halfc"}}
	if got.Len() != len(want) {
		t.Fatalf("cross-kind join produced %d tuples, want %d:\n%v", got.Len(), len(want), got.Tuples())
	}
	for _, w := range want {
		if !got.Contains(storage.Tuple{storage.Str(w[0]), storage.Str(w[1])}) {
			t.Errorf("missing join result %v", w)
		}
	}

	// Set semantics must also collapse Equal cross-kind tuples: inserting
	// Float(3) after Int(3) is a duplicate, not a new row.
	dup := storage.NewRelation("dup", "X")
	dup.InsertValues(storage.Int(3))
	dup.InsertValues(storage.Float(3))
	if dup.Len() != 1 {
		t.Errorf("Int(3) and Float(3) should collapse under set semantics, got %d rows", dup.Len())
	}
}

// TestCrossKindRepeatedVariable is the regression for the repeated-variable
// (dup-check) path: r(X,X,B) must bind X to a single equality class, and the
// engine's equality classes are Compare's — Int(1) and Float(1) join
// together (their AppendKey encodings coincide), so a repeated variable must
// accept them too. The dup checks used Go's kind-sensitive ==, which made
// r(X,X,B) reject a row that the equivalent self-join r(X,Y,B) AND X = Y
// accepts. Every executor shares the fix, keeping the differential oracles
// bit-identical.
func TestCrossKindRepeatedVariable(t *testing.T) {
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "A", "B", "C")
	r.InsertValues(storage.Int(1), storage.Float(1), storage.Str("cross"))
	r.InsertValues(storage.Int(2), storage.Int(2), storage.Str("same"))
	r.InsertValues(storage.Int(3), storage.Int(4), storage.Str("diff"))
	s := storage.NewRelation("s", "C")
	s.InsertValues(storage.Str("cross"))
	s.InsertValues(storage.Str("same"))
	s.InsertValues(storage.Str("diff"))
	db.Add(r)
	db.Add(s)

	rules := map[string]string{
		// Scan shape: the dup check runs inside the base-relation scan.
		"scan": `answer(C) :- r(X,X,C)`,
		// Join shape: the dup check runs on the indexed (build) side of a
		// hash join while probing from s.
		"join": `answer(C) :- s(C) AND r(X,X,C)`,
	}
	for shape, text := range rules {
		rule, err := datalog.ParseRule(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ExecMode{ExecStream, ExecMaterialize} {
			got, err := EvalRule(db, rule, nil, &Options{Exec: mode})
			if err != nil {
				t.Fatalf("%s/%s: %v", shape, modeNames[mode], err)
			}
			for _, want := range []string{"cross", "same"} {
				if !got.Contains(storage.Tuple{storage.Str(want)}) {
					t.Errorf("%s/%s: r(X,X,C) dropped %q; repeated variables must use Equal, not ==:\n%v",
						shape, modeNames[mode], want, got.Tuples())
				}
			}
			if got.Contains(storage.Tuple{storage.Str("diff")}) {
				t.Errorf("%s/%s: r(X,X,C) admitted a row whose columns differ", shape, modeNames[mode])
			}
		}
	}
}
