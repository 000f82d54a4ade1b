package planner

import (
	"math"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/paper"
	"queryflocks/internal/workload"
)

func TestEstimatePlanCostOrdersPlansSensibly(t *testing.T) {
	// On Example 4.4-shaped data (rare symptoms, popular medicines) the
	// model must cost the okS plan below the trivial plan, and the okM
	// plan above the okS plan.
	db := workload.Medical(example44Config())
	est := NewEstimator(db)
	f := paper.Medical(20)

	cost := func(sets [][]datalog.Param) float64 {
		plan, err := PlanWithParamSets(f, sets)
		if err != nil {
			t.Fatal(err)
		}
		return est.EstimatePlanCost(plan)
	}
	trivial := cost(nil)
	okS := cost([][]datalog.Param{{"s"}})
	okM := cost([][]datalog.Param{{"m"}})
	if !(okS < trivial) {
		t.Errorf("okS cost %.0f should beat trivial %.0f", okS, trivial)
	}
	if !(okS < okM) {
		t.Errorf("okS cost %.0f should beat okM %.0f", okS, okM)
	}
	for _, c := range []float64{trivial, okS, okM} {
		if math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
			t.Fatalf("degenerate cost %v", c)
		}
	}
}

func TestPlanExhaustiveMedical(t *testing.T) {
	db := workload.Medical(example44Config())
	est := NewEstimator(db)
	f := paper.Medical(20)
	plan, err := PlanExhaustive(f, est)
	if err != nil {
		t.Fatal(err)
	}
	// The chosen plan must include the symptom filter on this data.
	found := false
	for _, s := range plan.Steps {
		if s.Name == "ok_s" {
			found = true
		}
	}
	if !found {
		t.Errorf("exhaustive search skipped the symptom filter:\n%s", plan)
	}
	res, err := plan.Execute(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := f.Eval(db, nil)
	if !res.Answer.Equal(direct) {
		t.Error("exhaustive plan differs from direct")
	}
}

func TestPlanExhaustiveNeverWorseThanTrivialUnderModel(t *testing.T) {
	db := medicalDB()
	est := NewEstimator(db)
	f := paper.Medical(5)
	plan, err := PlanExhaustive(f, est)
	if err != nil {
		t.Fatal(err)
	}
	trivial, err := PlanWithParamSets(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.EstimatePlanCost(plan) > est.EstimatePlanCost(trivial) {
		t.Error("exhaustive choice costs more than the trivial plan under its own model")
	}
}

func TestPlanExhaustiveUnionFlock(t *testing.T) {
	db := workload.Web(workload.DefaultWeb(200, 3))
	est := NewEstimator(db)
	f := paper.WebWords(3)
	plan, err := PlanExhaustive(f, est)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Execute(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := f.Eval(db, nil)
	if !res.Answer.Equal(direct) {
		t.Error("exhaustive union plan differs from direct")
	}
}
