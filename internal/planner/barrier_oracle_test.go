package planner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"queryflocks/internal/core"
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

// TestBarrierMatchesMaterializeOracle extends the columnar-vs-
// ExecMaterialize decision-sequence sweep with the barrier shapes the
// examples/flocks corpus lacks. For each case the ID-space barriers
// (ExecStream) must log exactly the decisions the boxed oracle (run once,
// sequentially) logs — same sites, same averages, same verdicts, same
// cardinalities — and return its answer, at workers 1/2/8 on the memory
// engine and on the disk engine, and both must equal direct evaluation.
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
			direct, err := f.Eval(c.db, nil)
			if err != nil {
				t.Fatal(err)
			}
			run := func(db *storage.Database, w int, exec eval.ExecMode) *DynamicResult {
				o := c.opts
				o.Workers, o.Exec = w, exec
				res, err := EvalDynamic(db, f, &o)
				if err != nil {
					t.Fatalf("workers=%d exec=%v: %v", w, exec, err)
				}
				return res
			}
			oracle := run(c.db, 1, eval.ExecMaterialize)
			if len(oracle.Decisions) == 0 {
				t.Fatal("the case has no decision barrier")
			}
			if c.check != nil {
				c.check(t, oracle.Decisions)
			}
			t.Logf("oracle:\n%s", oracle)
			for _, w := range []int{1, 2, 8} {
				for engine, db := range map[string]*storage.Database{"memory": c.db, "disk": diskDB} {
					got := run(db, w, eval.ExecStream)
					what := fmt.Sprintf("workers=%d engine=%s", w, engine)
					if len(got.Decisions) != len(oracle.Decisions) {
						t.Fatalf("%s: %d decisions, the oracle has %d:\n%s\noracle:\n%s", what, len(got.Decisions), len(oracle.Decisions), got, oracle)
					}
					for i, d := range got.Decisions {
						// String covers the site, verdict and cardinalities;
						// the average must agree to the last bit too.
						if want := oracle.Decisions[i]; d.String() != want.String() || d.AvgGroup != want.AvgGroup {
							t.Fatalf("%s decision %d:\n got %s\nwant %s", what, i, d, want)
						}
					}
					// Equal, not Dump: where a value has two spellings the
					// executors may return different members of its class.
					if !got.Answer.Equal(oracle.Answer) || !got.Answer.Equal(direct) {
						t.Fatalf("%s: answer differs\ncolumnar:\n%s\noracle:\n%s\ndirect:\n%s", what, got.Answer.Dump(), oracle.Answer.Dump(), direct.Dump())
					}
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

// refilterDB is the instance of TestDynamicRecordsPostFilterAverage (see
// its comment for the cardinalities): the third barrier re-filters a
// parameter set the second already filtered.
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
// MaxTuples trips at the barrier that buffers one row too many, reporting
// the same live count the boxed barrier did (every buffered row is one
// live tuple; the reduction's transient state is not budgeted), and a
// cancellation that lands after buffering stops the evaluation inside
// the barrier instead of after it.
func TestBarrierBudgetAndCancellation(t *testing.T) {
	db := refilterDB()
	f := core.MustParse(`QUERY:
answer(B) :- r($m,B) AND s(B,C) AND u(C,D)
FILTER:
COUNT(answer.B) >= 3`)
	opts := func() *DynamicOptions { return &DynamicOptions{FixedOrder: []int{0, 1, 2}, Workers: 1} }

	// The first barrier buffers r's 36 rows and skips, so it still holds
	// them while the second buffers its 16: the figures below are the
	// boxed barrier's, to the tuple. A budget of 35 dies in the first
	// barrier, one of 51 in the second at its 16th row, 52 is enough.
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

// evalDynamicObserved is EvalDynamic's streaming path with onDecide
// called whenever a barrier consults the policy. The result is returned
// beside the error: its decision log says how far the evaluation got.
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
	res.Answer, err = eval.RunPlan(db, plan, &eval.Options{Workers: o.Workers, Ctx: o.Ctx, Limits: o.Limits})
	return res, err
}
