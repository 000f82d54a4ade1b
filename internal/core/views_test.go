package core

import (
	"strings"
	"testing"

	"queryflocks/internal/storage"
)

// multiDiseaseSrc is the §2.2 extension scenario: patients may have
// several diseases, so "unexplained symptom" must mean unexplained by ANY
// of the patient's diseases. The view allCaused(P,S) relates each patient
// to every symptom any of their diseases causes.
const multiDiseaseSrc = `
VIEWS:
allCaused(P,S) :- diagnoses(P,D) AND causes(D,S)
QUERY:
answer(P) :-
    exhibits(P,$s) AND
    treatments(P,$m) AND
    NOT allCaused(P,$s)
FILTER:
COUNT(answer.P) >= 2`

// multiDiseaseDB: patients 1..3 have BOTH flu (causes fever) and cold
// (causes cough); they exhibit fever, cough, and rash, and take drugA.
// Under the single-disease Fig. 3 flock, (fever, drugA) would wrongly
// surface (cold doesn't explain fever); with the view, only rash is
// unexplained.
func multiDiseaseDB() *storage.Database {
	db := storage.NewDatabase()
	diagnoses := storage.NewRelation("diagnoses", "Patient", "Disease")
	exhibits := storage.NewRelation("exhibits", "Patient", "Symptom")
	treatments := storage.NewRelation("treatments", "Patient", "Medicine")
	causes := storage.NewRelation("causes", "Disease", "Symptom")
	for _, rel := range []*storage.Relation{diagnoses, exhibits, treatments, causes} {
		db.Add(rel)
	}
	causes.InsertValues(storage.Str("flu"), storage.Str("fever"))
	causes.InsertValues(storage.Str("cold"), storage.Str("cough"))
	for p := int64(1); p <= 3; p++ {
		diagnoses.InsertValues(storage.Int(p), storage.Str("flu"))
		diagnoses.InsertValues(storage.Int(p), storage.Str("cold"))
		for _, s := range []string{"fever", "cough", "rash"} {
			exhibits.InsertValues(storage.Int(p), storage.Str(s))
		}
		treatments.InsertValues(storage.Int(p), storage.Str("drugA"))
	}
	return db
}

func TestViewFlockParsesAndRenders(t *testing.T) {
	f := MustParse(multiDiseaseSrc)
	if len(f.Views) != 1 || f.Views[0].Head.Pred != "allCaused" {
		t.Fatalf("views = %v", f.Views)
	}
	out := f.String()
	if !strings.Contains(out, "VIEWS:") || !strings.Contains(out, "allCaused(P,S) :- diagnoses(P,D) AND causes(D,S)") {
		t.Errorf("rendering:\n%s", out)
	}
	// Round trip.
	if _, err := Parse(out); err != nil {
		t.Fatalf("reparse: %v", err)
	}
}

func TestViewFlockMultiDisease(t *testing.T) {
	f := MustParse(multiDiseaseSrc)
	db := multiDiseaseDB()
	if err := f.CheckDatabase(db); err != nil {
		t.Fatal(err)
	}
	got, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only (drugA, rash): fever is explained by flu, cough by cold.
	if got.Len() != 1 || !got.Contains(storage.Tuple{storage.Str("drugA"), storage.Str("rash")}) {
		t.Fatalf("got:\n%s", got.Dump())
	}
	// Naive oracle agrees.
	naive, err := f.EvalNaive(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(got) {
		t.Errorf("naive differs:\n%s", naive.Dump())
	}
	// The single-disease Fig. 3 shape (without the view) would include
	// fever and cough: sanity-check the contrast.
	single := MustParse(`
QUERY:
answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND diagnoses(P,D) AND NOT causes(D,$s)
FILTER:
COUNT(answer.P) >= 2`)
	wrong, err := single.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wrong.Len() <= got.Len() {
		t.Errorf("single-disease flock should over-report on multi-disease data; got %d vs %d",
			wrong.Len(), got.Len())
	}
}

func TestViewFlockPlansAndDynamicAgree(t *testing.T) {
	f := MustParse(multiDiseaseSrc)
	db := multiDiseaseDB()
	direct, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := TrivialPlan(f)
	res, err := plan.Execute(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(direct) {
		t.Error("trivial plan over view flock differs from direct")
	}
}

func TestUnionView(t *testing.T) {
	// A view defined by two rules (union view).
	src := `
VIEWS:
senior(P) :- people(P,S) AND S > 65
senior(P) :- vip(P)
QUERY:
answer(P) :- buys(P,$i) AND senior(P)
FILTER:
COUNT(answer.P) >= 2`
	f := MustParse(src)
	db := storage.NewDatabase()
	people := storage.NewRelation("people", "P", "Age")
	vip := storage.NewRelation("vip", "P")
	buys := storage.NewRelation("buys", "P", "Item")
	db.Add(people)
	db.Add(vip)
	db.Add(buys)
	people.InsertValues(storage.Int(1), storage.Int(70))
	people.InsertValues(storage.Int(2), storage.Int(30))
	people.InsertValues(storage.Int(3), storage.Int(40))
	vip.InsertValues(storage.Int(3))
	for _, p := range []int64{1, 2, 3} {
		buys.InsertValues(storage.Int(p), storage.Str("tea"))
	}
	got, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Seniors: 1 (age) and 3 (vip); both buy tea => tea qualifies.
	if got.Len() != 1 || !got.Contains(storage.Tuple{storage.Str("tea")}) {
		t.Fatalf("got:\n%s", got.Dump())
	}
}

func TestChainedViews(t *testing.T) {
	// A view referencing an earlier view.
	src := `
VIEWS:
parent(X,Y) :- father(X,Y)
grandparent(X,Z) :- parent(X,Y) AND parent(Y,Z)
QUERY:
answer(X) :- grandparent(X,$z)
FILTER:
COUNT(answer.X) >= 1`
	f := MustParse(src)
	db := storage.NewDatabase()
	father := storage.NewRelation("father", "X", "Y")
	father.InsertValues(storage.Str("a"), storage.Str("b"))
	father.InsertValues(storage.Str("b"), storage.Str("c"))
	db.Add(father)
	got, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(storage.Tuple{storage.Str("c")}) {
		t.Fatalf("got:\n%s", got.Dump())
	}
}

func TestStratifiedNegationAcrossViews(t *testing.T) {
	// A view may negate an earlier view (stratified negation): risky(P)
	// holds for patients with some symptom no disease of theirs causes.
	src := `
VIEWS:
allCaused(P,S) :- diagnoses(P,D) AND causes(D,S)
unexplained(P,S) :- exhibits(P,S) AND NOT allCaused(P,S)
QUERY:
answer(P) :- unexplained(P,$s) AND treatments(P,$m)
FILTER:
COUNT(answer.P) >= 2`
	f := MustParse(src)
	if len(f.Views) != 2 {
		t.Fatalf("views = %d", len(f.Views))
	}
	db := multiDiseaseDB()
	got, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same answer as the single-view formulation.
	single := MustParse(multiDiseaseSrc)
	want, err := single.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("stratified views differ:\ngot:\n%s\nwant:\n%s", got.Dump(), want.Dump())
	}
	// Naive oracle agrees too.
	naive, err := f.EvalNaive(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(got) {
		t.Error("naive disagrees on stratified views")
	}
}

func TestViewValidation(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"param in view", `
VIEWS:
v(P) :- r(P,$x)
QUERY:
answer(P) :- v(P) AND s(P,$y)
FILTER:
COUNT(answer.P) >= 1`, "parameter-free"},
		{"recursive view", `
VIEWS:
v(P) :- v(P)
QUERY:
answer(P) :- v(P) AND s(P,$y)
FILTER:
COUNT(answer.P) >= 1`, "recursive"},
		{"forward reference", `
VIEWS:
v(P) :- w(P)
w(P) :- r(P)
QUERY:
answer(P) :- v(P) AND s(P,$y)
FILTER:
COUNT(answer.P) >= 1`, "before it is defined"},
		{"unsafe view", `
VIEWS:
v(P,Q) :- r(P)
QUERY:
answer(P) :- v(P,Q) AND s(P,$y)
FILTER:
COUNT(answer.P) >= 1`, "unsafe"},
		{"constant head", `
VIEWS:
v(3) :- r(X)
QUERY:
answer(P) :- s(P,$y) AND v(Z)
FILTER:
COUNT(answer.P) >= 1`, "must be variables"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.wantErr)
		}
	}
}

func TestViewCollisionWithBaseRelation(t *testing.T) {
	src := `
VIEWS:
baskets(B,I) :- other(B,I)
QUERY:
answer(B) :- baskets(B,$1)
FILTER:
COUNT(answer.B) >= 1`
	f := MustParse(src)
	db := basketsDB() // already has a baskets relation
	other := storage.NewRelation("other", "B", "I")
	db.Add(other)
	if _, err := f.Eval(db, nil); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Errorf("expected collision error, got %v", err)
	}
}

func TestViewArityMismatchAcrossRules(t *testing.T) {
	views := MustParse(`
VIEWS:
v(X) :- r(X)
QUERY:
answer(X) :- v(X) AND s(X,$y)
FILTER:
COUNT(answer.X) >= 1`)
	_ = views
	// Two view rules with the same head predicate but different arity are
	// rejected at materialization.
	src := `
VIEWS:
v(X) :- r(X)
v(X,Y) :- s(X,Y)
QUERY:
answer(X) :- v(X) AND s(X,$y)
FILTER:
COUNT(answer.X) >= 1`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "X")
	s := storage.NewRelation("s", "X", "Y")
	r.InsertValues(storage.Int(1))
	s.InsertValues(storage.Int(1), storage.Int(2))
	db.Add(r)
	db.Add(s)
	if _, err := f.Eval(db, nil); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("expected arity error, got %v", err)
	}
}
