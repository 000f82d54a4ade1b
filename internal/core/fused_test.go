package core

import (
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
)

// fig3Plan builds the §4.1 two-step plan for the medical flock: okS
// filters symptom parameters, the final step references okS once — the
// fusable shape (single positive consumer, distinct parameter args).
func fig3Plan(t *testing.T) *Plan {
	t.Helper()
	f := MustParse(fig3Src)
	stepS := fig3StepS(t, f)
	p, err := NewPlan(f, []FilterStep{stepS, FinalStep(f, "ok", stepS)})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fig2SymmetryPlan builds the §3.1 market-basket plan whose single-item
// step is referenced TWICE (as ok1($1) and ok1($2)) — never fusable.
func fig2SymmetryPlan(t *testing.T) *Plan {
	t.Helper()
	f := MustParse(fig2Src)
	sub, ok := MinimalSubqueryForParams(f.Query[0], []datalog.Param{"1"})
	if !ok {
		t.Fatal("no single-item subquery")
	}
	ok1 := FilterStep{Name: "ok1", Params: []datalog.Param{"1"}, Query: datalog.Union{sub.Rule}}
	final := FinalStepRefs(f, "ok", StepRef{Step: ok1, Args: []datalog.Param{"1"}},
		StepRef{Step: ok1, Args: []datalog.Param{"2"}})
	p, err := NewPlan(f, []FilterStep{ok1, final})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFusableSteps(t *testing.T) {
	fused := fig3Plan(t).fusableSteps()
	if !fused["okS"] {
		t.Error("fig3 okS is consumed once positively; should be fusable")
	}
	if fused["ok"] {
		t.Error("the final step has no consumer; must not be fusable")
	}
	sym := fig2SymmetryPlan(t).fusableSteps()
	if sym["ok1"] {
		t.Error("ok1 is referenced twice; must not be fusable")
	}
}

// TestExecuteFusedMatchesExecute is the fusion oracle: on both the
// fusable fig3 plan and the non-fusable symmetry plan, ExecuteFused
// must produce the same answer set as the step-at-a-time Execute — under
// the streaming executor and under the materializing one — and as the
// naive evaluator, at worker counts 1, 2 and 8.
func TestExecuteFusedMatchesExecute(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		db   func() *storage.Database
	}{
		{"fig3-fusable", fig3Plan(t), medicalDB},
		{"fig2-symmetry", fig2SymmetryPlan(t), basketsDB},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := c.db()
			want, err := c.plan.Flock.EvalNaive(db, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, exec := range []eval.ExecMode{eval.ExecStream, eval.ExecMaterialize} {
				for _, w := range []int{1, 2, 8} {
					fused, err := c.plan.ExecuteFused(db, &EvalOptions{Workers: w})
					if err != nil {
						t.Fatalf("workers=%d: fused: %v", w, err)
					}
					res, err := c.plan.Execute(db, &EvalOptions{Workers: w, Exec: exec})
					if err != nil {
						t.Fatalf("%v workers=%d: unfused: %v", exec, w, err)
					}
					if !fused.Equal(res.Answer) {
						t.Fatalf("%v workers=%d: fused answer differs from Execute\nfused:\n%s\nunfused:\n%s",
							exec, w, fused.Dump(), res.Answer.Dump())
					}
					if !fused.Equal(want) {
						t.Fatalf("%v workers=%d: fused answer differs from naive oracle\nfused:\n%s\nwant:\n%s",
							exec, w, fused.Dump(), want.Dump())
					}
				}
			}
		})
	}
}
