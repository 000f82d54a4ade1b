package core

import (
	"strings"
	"testing"

	"queryflocks/internal/storage"
)

// Flock sources for the paper's running examples, with low thresholds so
// tiny test databases exercise them.
const (
	fig2Src = `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 2`

	fig3Src = `
QUERY:
answer(P) :-
    exhibits(P,$s) AND
    treatments(P,$m) AND
    diagnoses(P,D) AND
    NOT causes(D,$s)
FILTER:
COUNT(answer.P) >= 2`

	fig4Src = `
QUERY:
answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2
FILTER:
COUNT(answer(*)) >= 2`

	fig10Src = `
QUERY:
answer(B,W) :-
    baskets(B,$1) AND
    baskets(B,$2) AND
    importance(B,W) AND
    $1 < $2
FILTER:
SUM(answer.W) >= 10`
)

// basketsDB: basket -> items, with (beer, diapers) in baskets 1 and 2.
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
	add(4, "chips")
	db := storage.NewDatabase()
	db.Add(b)
	return db
}

func medicalDB() *storage.Database {
	db := storage.NewDatabase()
	diagnoses := storage.NewRelation("diagnoses", "Patient", "Disease")
	exhibits := storage.NewRelation("exhibits", "Patient", "Symptom")
	treatments := storage.NewRelation("treatments", "Patient", "Medicine")
	causes := storage.NewRelation("causes", "Disease", "Symptom")
	for _, rel := range []*storage.Relation{diagnoses, exhibits, treatments, causes} {
		db.Add(rel)
	}
	// Patients 1..3: flu (causes fever), take drugA, exhibit fever + rash.
	for p := int64(1); p <= 3; p++ {
		diagnoses.InsertValues(storage.Int(p), storage.Str("flu"))
		treatments.InsertValues(storage.Int(p), storage.Str("drugA"))
		exhibits.InsertValues(storage.Int(p), storage.Str("fever"))
		exhibits.InsertValues(storage.Int(p), storage.Str("rash"))
	}
	// Patient 4: cold (causes cough), drugB, exhibits cough only.
	diagnoses.InsertValues(storage.Int(4), storage.Str("cold"))
	treatments.InsertValues(storage.Int(4), storage.Str("drugB"))
	exhibits.InsertValues(storage.Int(4), storage.Str("cough"))
	causes.InsertValues(storage.Str("flu"), storage.Str("fever"))
	causes.InsertValues(storage.Str("cold"), storage.Str("cough"))
	return db
}

func TestParseFlockExamples(t *testing.T) {
	for name, src := range map[string]string{
		"fig2": fig2Src, "fig3": fig3Src, "fig4": fig4Src, "fig10": fig10Src,
	} {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(f.Params) != 2 {
			t.Errorf("%s: params = %v", name, f.Params)
		}
		// Round trip through String.
		if _, err := Parse(f.String()); err != nil {
			t.Errorf("%s: reparse of String failed: %v\n%s", name, err, f)
		}
	}
}

func TestFlockValidation(t *testing.T) {
	bad := []struct {
		name, src string
		wantErr   string
	}{
		{"no params", "QUERY:\nanswer(B) :- baskets(B,x)\nFILTER:\nCOUNT(answer.B) >= 2", "no parameters"},
		{"param in head", "QUERY:\nanswer($1) :- baskets(B,$1)\nFILTER:\nCOUNT(answer(*)) >= 2", ""},
		{"unsafe rule", "QUERY:\nanswer(B) :- baskets(B,$1) AND NOT other(C,$2)\nFILTER:\nCOUNT(answer.B) >= 2", "unsafe"},
		{"param missing from one rule", `QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2)
answer(B) :- baskets(B,$1)
FILTER:
COUNT(answer.B) >= 2`, "positive subgoal"},
		{"param only in negation", "QUERY:\nanswer(B) :- baskets(B,$1) AND NOT extra(B,$2) AND baskets(B,I)\nFILTER:\nCOUNT(answer.B) >= 2", ""},
		{"bad filter target", "QUERY:\nanswer(B) :- baskets(B,$1)\nFILTER:\nCOUNT(answer.Z) >= 2", "not a head variable"},
	}
	for _, c := range bad {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad source")
		}
	}()
	MustParse("garbage")
}

func TestFlockAccessors(t *testing.T) {
	f := MustParse(fig3Src)
	if got := f.ParamColumns(); len(got) != 2 || got[0] != "$m" || got[1] != "$s" {
		t.Errorf("ParamColumns = %v", got)
	}
	base := f.BaseRelations()
	want := []string{"causes", "diagnoses", "exhibits", "treatments"}
	if len(base) != len(want) {
		t.Fatalf("BaseRelations = %v", base)
	}
	for i := range want {
		if base[i] != want[i] {
			t.Errorf("BaseRelations[%d] = %q, want %q", i, base[i], want[i])
		}
	}
	if err := f.CheckDatabase(medicalDB()); err != nil {
		t.Errorf("CheckDatabase: %v", err)
	}
	if err := f.CheckDatabase(storage.NewDatabase()); err == nil {
		t.Error("CheckDatabase on empty db should fail")
	}
	// Arity mismatch.
	db := medicalDB()
	db.Add(storage.NewRelation("causes", "OnlyOne"))
	if err := f.CheckDatabase(db); err == nil {
		t.Error("CheckDatabase should catch arity mismatch")
	}
}

func TestEvalFig2Direct(t *testing.T) {
	f := MustParse(fig2Src)
	got, err := f.Eval(basketsDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only (beer, diapers) appears in >= 2 baskets.
	if got.Len() != 1 || !got.Contains(storage.Tuple{storage.Str("beer"), storage.Str("diapers")}) {
		t.Fatalf("got:\n%s", got.Dump())
	}
	cols := got.Columns()
	if cols[0] != "$1" || cols[1] != "$2" {
		t.Errorf("columns = %v", cols)
	}
}

func TestEvalFig3Direct(t *testing.T) {
	f := MustParse(fig3Src)
	got, err := f.Eval(medicalDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// rash is unexplained for patients 1-3 on drugA; fever is explained.
	if got.Len() != 1 {
		t.Fatalf("got:\n%s", got.Dump())
	}
	// Params sorted: $m, $s.
	if !got.Contains(storage.Tuple{storage.Str("drugA"), storage.Str("rash")}) {
		t.Errorf("missing (drugA, rash):\n%s", got.Dump())
	}
}

func TestEvalFig10WeightedDirect(t *testing.T) {
	db := basketsDB()
	imp := storage.NewRelation("importance", "BID", "W")
	imp.InsertValues(storage.Int(1), storage.Int(8))
	imp.InsertValues(storage.Int(2), storage.Int(3))
	imp.InsertValues(storage.Int(3), storage.Int(100))
	imp.InsertValues(storage.Int(4), storage.Int(1))
	db.Add(imp)

	f := MustParse(fig10Src)
	got, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (beer,diapers): baskets 1,2 weights 8+3=11 >= 10. (beer,relish):
	// basket 1 weight 8 < 10. (diapers,relish): 8 < 10.
	if got.Len() != 1 || !got.Contains(storage.Tuple{storage.Str("beer"), storage.Str("diapers")}) {
		t.Fatalf("got:\n%s", got.Dump())
	}
}

func TestEvalNaiveMatchesDirectOnExamples(t *testing.T) {
	cases := []struct {
		name string
		src  string
		db   *storage.Database
	}{
		{"fig2", fig2Src, basketsDB()},
		{"fig3", fig3Src, medicalDB()},
	}
	for _, c := range cases {
		f := MustParse(c.src)
		direct, err := f.Eval(c.db, nil)
		if err != nil {
			t.Fatalf("%s direct: %v", c.name, err)
		}
		naive, err := f.EvalNaive(c.db, nil)
		if err != nil {
			t.Fatalf("%s naive: %v", c.name, err)
		}
		if !direct.Equal(naive) {
			t.Errorf("%s: direct != naive\ndirect:\n%s\nnaive:\n%s", c.name, direct.Dump(), naive.Dump())
		}
	}
}

func TestEvalRejectsInfiniteFilter(t *testing.T) {
	src := `
QUERY:
answer(B) :- baskets(B,$1)
FILTER:
COUNT(answer.B) <= 5`
	f := MustParse(src) // parses fine; evaluation must reject
	if _, err := f.Eval(basketsDB(), nil); err == nil {
		t.Error("direct eval should reject filter passing on empty")
	}
	if _, err := f.EvalNaive(basketsDB(), nil); err == nil {
		t.Error("naive eval should reject filter passing on empty")
	}
}

func TestNaiveLimit(t *testing.T) {
	// 3 params over a relation with many values would exceed any tiny
	// limit; simulate by checking the error path with a big cross product.
	src := `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND baskets(B,$3) AND baskets(B,$4) AND baskets(B,$5) AND baskets(B,$6) AND baskets(B,$7) AND baskets(B,$8)
FILTER:
COUNT(answer.B) >= 2`
	f := MustParse(src)
	db := storage.NewDatabase()
	b := storage.NewRelation("baskets", "BID", "Item")
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			b.InsertValues(storage.Int(int64(i)), storage.Str(strings.Repeat("x", j+1)))
		}
	}
	db.Add(b)
	if _, err := f.EvalNaive(db, nil); err == nil || !strings.Contains(err.Error(), "assignments") {
		t.Errorf("expected NaiveLimit error, got %v", err)
	}
}
