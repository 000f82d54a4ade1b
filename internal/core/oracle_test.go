package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// This file property-tests the paper's central equivalence claims on
// randomized instances:
//
//   - the direct group-by evaluator agrees with the naive generate-and-test
//     semantics (§2);
//   - every legal plan built from random safe subqueries (§4.2) computes
//     the same answer (the a-priori soundness claim of §3).

// randomFlockDB builds a random database for the fixed schema used by
// randomFlock: r(A,B), s(B,C), t(A).
func randomFlockDB(rng *rand.Rand) *storage.Database {
	db := storage.NewDatabase()
	dom := []storage.Value{
		storage.Int(0), storage.Int(1), storage.Int(2),
		storage.Str("a"), storage.Str("b"),
	}
	mk := func(name string, arity, maxRows int) {
		cols := make([]string, arity)
		for i := range cols {
			cols[i] = fmt.Sprintf("C%d", i)
		}
		rel := storage.NewRelation(name, cols...)
		for i := 0; i < rng.Intn(maxRows+1); i++ {
			t := make(storage.Tuple, arity)
			for j := range t {
				t[j] = dom[rng.Intn(len(dom))]
			}
			rel.Insert(t)
		}
		db.Add(rel)
	}
	mk("r", 2, 14)
	mk("s", 2, 14)
	mk("t", 1, 5)
	return db
}

// randomRuleBody draws a random extended-CQ body over the fixed schema.
func randomRuleBody(rng *rand.Rand, terms []datalog.Term) []datalog.Subgoal {
	n := 2 + rng.Intn(3)
	body := make([]datalog.Subgoal, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0, 1, 2: // positive atom
			pred := []string{"r", "s"}[rng.Intn(2)]
			body = append(body, datalog.NewAtom(pred,
				terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))]))
		case 3:
			body = append(body, datalog.NewAtom("t", terms[rng.Intn(len(terms))]))
		case 4: // negated atom
			a := datalog.NewAtom([]string{"r", "s"}[rng.Intn(2)],
				terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))])
			a.Negated = true
			body = append(body, a)
		default:
			ops := []datalog.CmpOp{datalog.Lt, datalog.Le, datalog.Ne}
			body = append(body, &datalog.Comparison{
				Op:   ops[rng.Intn(len(ops))],
				Left: terms[rng.Intn(len(terms))], Right: terms[rng.Intn(len(terms))],
			})
		}
	}
	return body
}

// randomFlock builds a random valid flock over the schema above (roughly
// one in three a 2-rule union, §3.4), retrying until validation passes.
func randomFlock(rng *rand.Rand) *Flock {
	terms := []datalog.Term{
		datalog.Var("X"), datalog.Var("Y"),
		datalog.Param("p"), datalog.Param("q"),
		datalog.CInt(1),
	}
	for {
		rules := 1
		if rng.Intn(3) == 0 {
			rules = 2
		}
		u := make(datalog.Union, 0, rules)
		for i := 0; i < rules; i++ {
			u = append(u, datalog.NewRule(
				datalog.NewAtom("answer", datalog.Var("X")),
				randomRuleBody(rng, terms)...))
		}
		threshold := 1 + rng.Intn(3)
		spec := datalog.FilterSpec{
			Agg: datalog.AggCount, Op: datalog.Ge,
			Threshold: storage.Int(int64(threshold)),
		}
		f, err := New(u, spec)
		if err == nil {
			return f
		}
	}
}

// randomLegalPlan builds a random plan. For single-rule flocks it draws
// random safe subqueries (possibly referencing earlier steps); for union
// flocks it draws random parameter sets and uses the §3.4 per-rule
// minimal subqueries.
func randomLegalPlan(f *Flock, rng *rand.Rand) (*Plan, error) {
	var steps []FilterStep
	nPre := rng.Intn(3)
	if len(f.Query) == 1 {
		subs := EnumerateSubqueries(f.Query[0])
		var withParams []Subquery
		for _, s := range subs {
			if len(s.Params) > 0 {
				withParams = append(withParams, s)
			}
		}
		for i := 0; i < nPre && len(withParams) > 0; i++ {
			s := withParams[rng.Intn(len(withParams))]
			q := datalog.Union{s.Rule}
			// Optionally reference a prior step whose params are a subset.
			if len(steps) > 0 && rng.Intn(2) == 0 {
				prev := steps[rng.Intn(len(steps))]
				if paramSubset(prev.Params, s.Params) {
					q = WithStepRefs(q, prev)
				}
			}
			steps = append(steps, FilterStep{
				Name:   fmt.Sprintf("pre%d", i),
				Params: s.Params,
				Query:  q,
			})
		}
	} else {
		for i := 0; i < nPre; i++ {
			// Random nonempty subset of the flock's parameters.
			var set []datalog.Param
			for _, p := range f.Params {
				if rng.Intn(2) == 0 {
					set = append(set, p)
				}
			}
			if len(set) == 0 {
				set = []datalog.Param{f.Params[rng.Intn(len(f.Params))]}
			}
			sub, err := UnionSubquery(f.Query, set)
			if err != nil {
				continue // no safe per-rule subquery for this set
			}
			steps = append(steps, FilterStep{
				Name:   fmt.Sprintf("pre%d", i),
				Params: sortedParamsCopy(set),
				Query:  sub,
			})
		}
	}
	steps = append(steps, FinalStep(f, "ok", steps...))
	return NewPlan(f, steps)
}

func sortedParamsCopy(set []datalog.Param) []datalog.Param {
	out := append([]datalog.Param(nil), set...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func paramSubset(sub, super []datalog.Param) bool {
	set := make(map[datalog.Param]bool)
	for _, p := range super {
		set[p] = true
	}
	for _, p := range sub {
		if !set[p] {
			return false
		}
	}
	return true
}

func TestDirectMatchesNaiveRandomized(t *testing.T) {
	const trials = 250
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		db := randomFlockDB(rng)
		f := randomFlock(rng)
		naive, err := f.EvalNaive(db, nil)
		if err != nil {
			t.Fatalf("trial %d naive: %v\n%s", trial, err, f)
		}
		direct, err := f.Eval(db, nil)
		if err != nil {
			t.Fatalf("trial %d direct: %v\n%s", trial, err, f)
		}
		if !direct.Equal(naive) {
			t.Fatalf("trial %d: direct != naive\nflock:\n%s\ndirect:\n%s\nnaive:\n%s\ndb: %s",
				trial, f, direct.Dump(), naive.Dump(), db)
		}
	}
}

func TestRandomLegalPlansMatchDirect(t *testing.T) {
	const trials = 250
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		db := randomFlockDB(rng)
		f := randomFlock(rng)
		direct, err := f.Eval(db, nil)
		if err != nil {
			t.Fatalf("trial %d direct: %v", trial, err)
		}
		plan, err := randomLegalPlan(f, rng)
		if err != nil {
			t.Fatalf("trial %d plan build: %v\nflock:\n%s", trial, err, f)
		}
		res, err := plan.Execute(db, nil)
		if err != nil {
			t.Fatalf("trial %d plan exec: %v\nplan:\n%s", trial, err, plan)
		}
		if !res.Answer.Equal(direct) {
			t.Fatalf("trial %d: plan != direct\nflock:\n%s\nplan:\n%s\nplan answer:\n%s\ndirect:\n%s\ndb: %s",
				trial, f, plan, res.Answer.Dump(), direct.Dump(), db)
		}
	}
}

// TestBoxedReferenceOrderIsDeterministic: the boxed reference returns its
// answer tuples in one order on every call, unsorted, through Flock.Eval
// and through Plan.Execute.
func TestBoxedReferenceOrderIsDeterministic(t *testing.T) {
	db := workload.Baskets(workload.BasketConfig{Baskets: 300, Items: 30, MeanSize: 5, Skew: 0.8, Seed: 35})
	f, opts := MustParse(fig2Src), &EvalOptions{Exec: eval.ExecMaterialize}
	var first [2]string
	for i := 0; i < 10; i++ {
		direct, err := f.Eval(db, opts)
		res, perr := TrivialPlan(f).Execute(db, opts)
		if err != nil || perr != nil {
			t.Fatal(err, perr)
		}
		for j, rel := range []*storage.Relation{direct, res.Answer} {
			if got := fmt.Sprint(rel.Tuples()); i == 0 {
				first[j] = got
			} else if got != first[j] {
				t.Fatalf("call %d, path %d: answer order changed\ngot:  %s\nwant: %s", i, j, got, first[j])
			}
		}
	}
}

// TestSharedRelationTwoDatabases: one free-standing relation added to two
// independent databases keeps its own dictionary and is read under each
// database's through a per-class remap. Both databases evaluate it
// concurrently, on the direct and plan paths at one and two workers, and
// must match the boxed reference.
func TestSharedRelationTwoDatabases(t *testing.T) {
	src := workload.Baskets(workload.BasketConfig{Baskets: 300, Items: 30, MeanSize: 5, Skew: 0.8, Seed: 35})
	baskets := src.MustRelation("baskets")
	f := MustParse(fig2Src)
	want, err := f.Eval(src, &EvalOptions{Exec: eval.ExecMaterialize})
	if err != nil || want.Len() == 0 {
		t.Fatalf("reference: %v rows, %v", want, err)
	}
	dbs := make([]*storage.Database, 2)
	for i := range dbs {
		// A different extra value per database numbers the two
		// dictionaries differently.
		extra := storage.NewRelation("extra", "X")
		extra.InsertValues(storage.Int(int64(-1 - i)))
		dbs[i] = storage.NewDatabase()
		dbs[i].Add(extra)
		dbs[i].Add(baskets)
	}
	errs := make([]error, len(dbs))
	var wg sync.WaitGroup
	for i, db := range dbs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range []int{1, 2, 1, 2} {
				opts := &EvalOptions{Workers: w}
				direct, err := f.Eval(db, opts)
				if err != nil {
					errs[i] = err
					return
				}
				res, err := TrivialPlan(f).Execute(db, opts)
				if err != nil {
					errs[i] = err
					return
				}
				for _, got := range []*storage.Relation{direct, res.Answer} {
					if g, w := fmt.Sprint(got.Sorted()), fmt.Sprint(want.Sorted()); g != w {
						errs[i] = fmt.Errorf("answer differs from the reference\ngot:  %s\nwant: %s", g, w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("database %d: %v", i, err)
		}
	}
}

func TestGroupAndFilterDirectly(t *testing.T) {
	// Extended answer: ($1, B) pairs.
	ext := storage.NewRelation("ext", "$1", "B")
	for _, row := range [][2]int64{{1, 10}, {1, 11}, {2, 10}, {3, 10}, {3, 11}, {3, 12}} {
		ext.InsertValues(storage.Int(row[0]), storage.Int(row[1]))
	}
	f := mkFilter(t, "COUNT(answer.B) >= 2", "answer(B) :- r(B)")
	got, _ := groupAndFilter(ext, 1, f, "out")
	if got.Len() != 2 {
		t.Fatalf("got:\n%s", got.Dump())
	}
	for _, want := range []int64{1, 3} {
		if !got.Contains(storage.Tuple{storage.Int(want)}) {
			t.Errorf("missing group %d", want)
		}
	}
	if got.Name() != "out" || got.Columns()[0] != "$1" {
		t.Errorf("relation shape: %s", got)
	}
	empty := storage.NewRelation("ext", "$1", "B")
	if got, _ := groupAndFilter(empty, 1, f, "out"); got.Len() != 0 {
		t.Fatalf("empty input produced %d groups", got.Len())
	}
}
