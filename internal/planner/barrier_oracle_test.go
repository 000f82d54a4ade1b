package planner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// barrierDB is a small three-relation instance for the decision-barrier
// cases: r(M,B) gives each of 12 parameter values a handful of B's,
// s(B,C) fans some B's out to several C's (C is existential in every
// case's rule, so binding rows repeat their head tuple), and w(B,W)
// weighs the B's with integers, floats and — unless lift raises them —
// negative numbers.
func barrierDB(seed, lift int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	r := storage.NewRelation("r", "M", "B")
	s := storage.NewRelation("s", "B", "C")
	w := storage.NewRelation("w", "B", "W")
	for b := int64(1); b <= 60; b++ {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			r.InsertValues(storage.Int(1+rng.Int63n(12)), storage.Int(b))
		}
		for k := rng.Intn(4); k > 0; k-- {
			s.InsertValues(storage.Int(b), storage.Int(100+rng.Int63n(5)))
		}
		switch b % 3 {
		case 0:
			w.InsertValues(storage.Int(b), storage.Int(lift+rng.Int63n(9)-3))
		case 1:
			w.InsertValues(storage.Int(b), storage.Float(float64(lift)+float64(rng.Intn(90))/10-2.5))
		default:
			w.InsertValues(storage.Int(b), storage.Int(lift+1+rng.Int63n(6)))
		}
	}
	db := storage.NewDatabase()
	db.Add(r)
	db.Add(s)
	db.Add(w)
	return db
}

// crossKindDB spells the same parameter value as an integer in some rows
// of r and as a float in others: Int(k) and Float(k) are Equal, share a
// dictionary ID, and must count as one assignment at a barrier.
func crossKindDB() *storage.Database {
	db := barrierDB(5, 0)
	r := storage.NewRelation("r", "M", "B")
	for i, t := range db.MustRelation("r").Tuples() {
		m := t[0]
		if i%2 == 1 {
			m = storage.Float(float64(m.AsInt()))
		}
		r.InsertValues(m, t[1])
	}
	db.Add(r)
	return db
}

// TestBarrierMatchesMaterializeOracle extends the dynamic variants of the
// oracle sweeps with the barrier shapes the examples/flocks corpus lacks.
// For each case the ID-space barriers must log exactly the decisions
// expectDecisions derives from the rule and the materializing executor's
// relations — same sites, same averages, same verdicts, same
// cardinalities — and return the boxed direct answer, on the memory
// engine and on the disk engine.
func TestBarrierMatchesMaterializeOracle(t *testing.T) {
	cases := []struct {
		name  string
		db    *storage.Database
		flock string
		opts  DynamicOptions
		// check, when set, asserts the case exercises what its name says.
		check func(t *testing.T, ds []Decision)
	}{
		{
			name: "int-vs-float parameter values",
			db:   crossKindDB(),
			flock: `QUERY:
answer(B) :- r($m,B) AND s(B,C)
FILTER:
COUNT(answer.B) >= 9`,
			opts: DynamicOptions{FilterRatio: 10},
			check: func(t *testing.T, ds []Decision) {
				// 12 parameter values however they are spelled.
				if got := float64(ds[0].RowsBefore) / ds[0].AvgGroup; got < 11.5 || got > 12.5 {
					t.Errorf("first barrier saw %.1f assignments, want 12 (1 and 1.0 are one)", got)
				}
			},
		},
		{
			name: "existential column and a two-column head",
			db:   barrierDB(6, 0),
			flock: `QUERY:
answer(B,W) :- r($m,B) AND w(B,W) AND s(B,C)
FILTER:
COUNT(answer.B) >= 9`,
			opts: DynamicOptions{FilterRatio: 10},
		},
		{
			name: "count of whole head tuples",
			db:   barrierDB(7, 0),
			flock: `QUERY:
answer(B,C) :- r($m,B) AND s(B,C)
FILTER:
COUNT(answer(*)) >= 18`,
			opts: DynamicOptions{FilterRatio: 10},
		},
		{
			name: "MIN filter",
			db:   barrierDB(8, 4),
			flock: `QUERY:
answer(B,W) :- r($m,B) AND w(B,W) AND s(B,C)
FILTER:
MIN(answer.W) <= 1`,
			opts: DynamicOptions{FilterRatio: 100},
		},
		{
			name: "MAX filter",
			db:   barrierDB(9, 0),
			flock: `QUERY:
answer(B,W) :- r($m,B) AND w(B,W) AND s(B,C)
FILTER:
MAX(answer.W) >= 6`,
			opts: DynamicOptions{FilterRatio: 10},
		},
		{
			name: "SUM over negative weights",
			db:   barrierDB(10, 0),
			flock: `QUERY:
answer(B,W) :- r($m,B) AND w(B,W) AND s(B,C)
FILTER:
SUM(answer.W) >= 20`,
			opts: DynamicOptions{FilterRatio: 10},
		},
		{
			name: "refilter of a parameter set seen before",
			db:   refilterDB(),
			flock: `QUERY:
answer(B) :- r($m,B) AND s(B,C) AND u(C,D)
FILTER:
COUNT(answer.B) >= 3`,
			opts: DynamicOptions{FixedOrder: []int{0, 1, 2}},
			check: func(t *testing.T, ds []Decision) {
				if len(ds) != 3 || ds[0].Filtered || !ds[1].Filtered || !ds[2].Filtered {
					t.Errorf("want skip, FILTER, re-FILTER on one parameter set, got:\n%v", ds)
				}
			},
		},
		{
			name: "barrier over zero rows",
			db:   barrierDB(11, 0),
			flock: `QUERY:
answer(B) :- r($m,B) AND s(B,7777) AND w(B,W)
FILTER:
COUNT(answer.B) >= 2`,
			opts: DynamicOptions{FixedOrder: []int{0, 1, 2}, FilterRatio: 0.01},
			check: func(t *testing.T, ds []Decision) {
				last := ds[len(ds)-1]
				if last.RowsBefore != 0 || last.Filtered || last.AvgGroup != 0 {
					t.Errorf("last barrier should skip an empty relation, got %s", last)
				}
			},
		},
		{
			name: "three-parameter key",
			db:   barrierDB(12, 0),
			flock: `QUERY:
answer(C) :- s(B1,C) AND r($a,B1) AND s(B2,C) AND r($b,B2) AND s(B3,C) AND r($c,B3) AND $a < $b AND $b < $c
FILTER:
COUNT(answer.C) >= 5`,
			opts: DynamicOptions{FixedOrder: []int{0, 1, 2, 3, 4, 5}, FilterRatio: 100},
			check: func(t *testing.T, ds []Decision) {
				if last := ds[len(ds)-1]; len(last.Params) != 3 || !last.Filtered {
					t.Errorf("last barrier should filter on three parameters, got %s", last)
				}
			},
		},
		{
			// E6's pipeline workload: Example 4.4's medical flock pinned to
			// the Fig. 8 join order, on data of E6's shape.
			name: "medical flock in the Fig. 8 order",
			db:   fig8MedicalDB(),
			flock: `QUERY:
answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND diagnoses(P,D) AND NOT causes(D,$s)
FILTER:
COUNT(answer.P) >= 20`,
			opts: DynamicOptions{FixedOrder: []int{0, 1, 2}},
			check: func(t *testing.T, ds []Decision) {
				if len(ds[0].Params) != 1 || ds[0].Params[0] != "s" || !ds[0].Filtered {
					t.Errorf("first barrier should filter $s after exhibits, got %s", ds[0])
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := core.MustParse(c.flock)
			dataDir := t.TempDir()
			if err := storage.CreateDir(dataDir, c.db); err != nil {
				t.Fatal(err)
			}
			diskDB, _, err := storage.OpenDir(dataDir, storage.EngineDisk)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := f.Eval(c.db, &core.EvalOptions{Exec: eval.ExecMaterialize})
			if err != nil {
				t.Fatal(err)
			}
			want := expectDecisions(t, c.db, f, c.opts)
			if len(want) == 0 {
				t.Fatal("the case has no decision barrier")
			}
			if c.check != nil {
				c.check(t, want)
			}
			for engine, db := range map[string]*storage.Database{"memory": c.db, "disk": diskDB} {
				o := c.opts
				got, err := EvalDynamic(db, f, &o)
				if err != nil {
					t.Fatalf("engine=%s: %v", engine, err)
				}
				what := "engine=" + engine
				checkDecisions(t, what, got.Decisions, want)
				// Equal, not Dump: where a value has two spellings the
				// executors may return different members of its class.
				if !got.Answer.Equal(direct) {
					t.Fatalf("%s: answer differs\ndynamic:\n%s\ndirect:\n%s", what, got.Answer.Dump(), direct.Dump())
				}
			}
		})
	}
}

// fig8MedicalDB is E6's medical workload (rare symptoms, popular
// medicines, one planted side effect) at a fortieth of its reference
// scale.
func fig8MedicalDB() *storage.Database {
	return workload.Medical(workload.MedicalConfig{
		Patients:            500,
		Diseases:            20,
		Symptoms:            200,
		Medicines:           6,
		SymptomsPerDisease:  4,
		MedicinesPerDisease: 1,
		ExhibitRate:         0.5,
		ExtraMedicines:      1.5,
		NoiseRate:           2.5,
		SideEffects:         []workload.SideEffect{{Medicine: 1, Symptom: 17, Rate: 0.4}},
		Seed:                1998,
	})
}

// refilterDB is the instance of the §4.4 baseline regression (the
// "refilter" barrier case): after a FILTER step the pipeline continues
// from the reduced relation, so the remembered average for that
// parameter set must be the post-filter one. Under
// answer(B) :- r($m,B) AND s(B,C) AND u(C,D), COUNT >= 3:
//
//	after r($m,B):  36 rows / 10 assignments, avg 3.6 >= 3    -> skip
//	after s(B,C):   16 rows / 10 assignments, avg 1.6 < 1.8   -> FILTER
//	                reduced to 8 rows / 2 assignments, avg 4.0
//	after u(C,D):    2 rows /  2 assignments, avg 1.0 < 0.5*3.6 -> FILTER
//
// A pre-filter baseline (1.6) would make the third barrier skip.
func refilterDB() *storage.Database {
	r := storage.NewRelation("r", "M", "B")
	s := storage.NewRelation("s", "B", "C")
	for m := int64(1); m <= 10; m++ {
		per, fan := int64(3), int64(1)
		if m > 8 {
			per, fan = 6, 4
		}
		for j := int64(1); j <= per; j++ {
			r.InsertValues(storage.Int(m), storage.Int(m*10+j))
			if j <= fan {
				s.InsertValues(storage.Int(m*10+j), storage.Int(m*10+j))
			}
		}
	}
	u := storage.NewRelation("u", "C", "D")
	u.InsertValues(storage.Int(91), storage.Int(1))
	u.InsertValues(storage.Int(101), storage.Int(1))
	db := storage.NewDatabase()
	db.Add(r)
	db.Add(s)
	db.Add(u)
	return db
}

// TestBarrierBudgetAndCancellation pins the barrier's limits behaviour.
// MaxTuples trips at the barrier that buffers one row too many (every
// buffered row is one live tuple; the reduction's transient state is not
// budgeted), and a cancellation that lands after buffering stops the
// evaluation inside the barrier instead of after it.
func TestBarrierBudgetAndCancellation(t *testing.T) {
	db := refilterDB()
	f := core.MustParse(`QUERY:
answer(B) :- r($m,B) AND s(B,C) AND u(C,D)
FILTER:
COUNT(answer.B) >= 3`)
	opts := func() *DynamicOptions { return &DynamicOptions{FixedOrder: []int{0, 1, 2}} }

	// The first barrier buffers r's 36 rows and skips, so it still holds
	// them while the second buffers its 16. A budget of 35 dies in the
	// first barrier, one of 51 in the second at its 16th row, 52 is enough.
	for _, c := range []struct {
		limit int
		want  string
	}{
		{35, "36 live intermediate tuples exceed the limit of 35"},
		{51, "52 live intermediate tuples exceed the limit of 51"},
	} {
		o := opts()
		o.Limits = eval.Limits{MaxTuples: c.limit}
		_, err := EvalDynamic(db, f, o)
		if !errors.Is(err, eval.ErrBudgetExceeded) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("MaxTuples=%d: %v, want the budget error %q", c.limit, err, c.want)
		}
	}
	o := opts()
	o.Limits = eval.Limits{MaxTuples: 52}
	tr := &eval.Trace{}
	o.Trace = tr
	res, err := EvalDynamic(db, f, o)
	if err != nil {
		t.Fatalf("MaxTuples=52: %v", err)
	}
	if peak := tr.Report("dynamic", 1, res.Answer.Len()).PeakTuples; peak != 52 {
		t.Fatalf("peak_tuples = %d, want 52", peak)
	}

	// Cancel from inside the policy, i.e. after the barrier buffered its
	// input and before it reduces: the reduction's first batch must
	// notice, so the barrier never records an outcome.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o = opts()
	o.Ctx = ctx
	decided := 0
	res, err = evalDynamicObserved(db, f, o, func() {
		if decided++; decided == 2 { // the barrier that filters
			cancel()
		}
	})
	if !errors.Is(err, eval.ErrCanceled) {
		t.Fatalf("cancel inside the second barrier: %v, want ErrCanceled", err)
	}
	if decided != 2 || len(res.Decisions) != 1 {
		t.Fatalf("%d barriers decided and %d recorded, want the evaluation to stop inside the second's reduction",
			decided, len(res.Decisions))
	}
}

// evalDynamicObserved is EvalDynamic with onDecide called whenever a
// barrier consults the policy. The result is returned beside the error:
// its decision log says how far the evaluation got.
func evalDynamicObserved(db *storage.Database, f *core.Flock, opts *DynamicOptions, onDecide func()) (*DynamicResult, error) {
	o := opts.orDefault()
	res := &DynamicResult{}
	plan, err := compileDynamic(db, f, &o, res)
	if err != nil {
		return nil, err
	}
	for _, n := range plan.Nodes() {
		if b, ok := n.(*physical.BarrierNode); ok {
			decide := b.Spec.Decide
			b.Spec.Decide = func(rows, assigns int) bool {
				onDecide()
				return decide(rows, assigns)
			}
		}
	}
	res.Answer, err = eval.RunPlan(db, plan, &eval.Options{Ctx: o.Ctx, Limits: o.Limits})
	return res, err
}

// expectDecisions derives the decision log EvalDynamic must write for f
// under opts from the rule alone — no second dynamic executor. Walking
// the join order (absorbed atoms skipped), a barrier follows each joined
// atom once parameters P are bound, the head is bound and f has one rule.
// Its relation is the materializing executor's binding relation over the
// bound terms V for the subquery of every subgoal over V, semi-joined
// with the survivors of the earlier filtering barriers. The survivors of
// a barrier are the boxed direct answer of the subquery flock: exact,
// because P only grows along the pipeline and, by §3.1, an assignment
// removed earlier fails every later subquery.
func expectDecisions(t *testing.T, db *storage.Database, f *core.Flock, opts DynamicOptions) []Decision {
	t.Helper()
	o, boxed := opts.orDefault(), &core.EvalOptions{Exec: eval.ExecMaterialize}
	db, err := f.MaterializeViews(db, boxed)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Query) != 1 {
		return nil
	}
	r, order := f.Query[0], o.FixedOrder
	if order == nil {
		if order, err = eval.JoinOrder(db, r); err != nil {
			t.Fatal(err)
		}
	}
	bound := map[string]bool{}
	over := func(ts ...datalog.Term) bool {
		for _, tm := range ts {
			if col, ok := termCol(tm); ok && !bound[col] {
				return false
			}
		}
		return true
	}
	var filtered []*storage.Relation // survivors of the filtering barriers
	// count returns how many rows of rel pass every filtered barrier and
	// their average per distinct projection onto cols (0 for no rows).
	count := func(rel *storage.Relation, cols []string) (rows int, avg float64) {
		assigns := storage.NewRelation("assigns", cols...)
	next:
		for _, tp := range rel.Tuples() {
			for _, surv := range filtered {
				if !surv.Contains(project(rel, tp, surv.Columns())) {
					continue next
				}
			}
			rows++
			assigns.Insert(project(rel, tp, cols))
		}
		return rows, float64(rows) / math.Max(1, float64(assigns.Len()))
	}
	atoms, joined := r.PositiveAtoms(), make([]bool, len(r.PositiveAtoms()))
	best := map[string]float64{} // §4.4's baseline per parameter set
	var out []Decision
	var terms []datalog.Term // V
	for _, i := range order {
		if joined[i] {
			continue
		}
		for _, tm := range atoms[i].Args {
			if col, ok := termCol(tm); ok && !bound[col] {
				bound[col], terms = true, append(terms, tm)
			}
		}
		for j, a := range atoms {
			joined[j] = joined[j] || over(a.Args...)
		}
		sub := datalog.NewRule(r.Head)
		for _, sg := range r.Body {
			a, isAtom := sg.(*datalog.Atom)
			if c, isCmp := sg.(*datalog.Comparison); isAtom && over(a.Args...) || isCmp && over(c.Left, c.Right) {
				sub.Body = append(sub.Body, sg)
			}
		}
		var params []datalog.Param
		for _, p := range f.Params {
			if over(p) {
				params = append(params, p)
			}
		}
		if len(params) == 0 || !over(r.Head.Args...) {
			continue
		}
		rel, err := eval.EvalRule(db, sub, terms, &eval.Options{Exec: eval.ExecMaterialize})
		if err != nil {
			t.Fatal(err)
		}
		subFlock := &core.Flock{Params: params, Query: datalog.Union{sub}, Filter: f.Filter}
		rows, avg := count(rel, subFlock.ParamColumns())
		prev, seen := best[fmt.Sprint(params)]
		d := Decision{After: atoms[i].String(), Params: params, AvgGroup: avg, RowsBefore: rows, RowsAfter: rows,
			Filtered: rows > 0 && (!seen && avg < o.FilterRatio*float64(thresholdOf(f)) || seen && avg < o.RefilterRatio*prev)}
		if d.Filtered {
			surv, err := subFlock.Eval(db, boxed)
			if err != nil {
				t.Fatal(err)
			}
			filtered = append(filtered, surv)
			d.RowsAfter, avg = count(rel, subFlock.ParamColumns())
		}
		if !seen || avg < prev {
			best[fmt.Sprint(params)] = avg // the post-filter average
		}
		out = append(out, d)
	}
	return out
}

// project returns tp's values in rel's columns cols.
func project(rel *storage.Relation, tp storage.Tuple, cols []string) storage.Tuple {
	out := make(storage.Tuple, len(cols))
	for i, c := range cols {
		out[i] = tp[rel.ColumnIndex(c)]
	}
	return out
}

// checkDecisions fails unless got is want, field for field, to the last
// bit of every average.
func checkDecisions(t *testing.T, what string, got, want []Decision) {
	t.Helper()
	type fields Decision // %+v prints every field, not Decision.String
	var g, w strings.Builder
	for _, d := range got {
		fmt.Fprintf(&g, "\n  %+v", fields(d))
	}
	for _, d := range want {
		fmt.Fprintf(&w, "\n  %+v", fields(d))
	}
	if g.String() != w.String() {
		t.Fatalf("%s: decisions differ from the oracle's\ngot:%s\nwant:%s", what, g.String(), w.String())
	}
}
