package planner

import (
	"fmt"
	"strings"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/paper"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// medicalDB returns a modest planted-side-effect database whose threshold
// support of 5 keeps tests fast.
func medicalDB() *storage.Database {
	cfg := workload.DefaultMedical(600, 17)
	return workload.Medical(cfg)
}

func TestEstimatorBasics(t *testing.T) {
	db := workload.Baskets(workload.BasketConfig{Baskets: 500, Items: 80, MeanSize: 5, Skew: 1.0, Seed: 3})
	est := NewEstimator(db)
	f := paper.MarketBasket(5)

	rows := est.RuleRows(f.Query[0])
	if rows <= 0 {
		t.Fatalf("RuleRows = %g", rows)
	}
	combos := est.ParamCombos(f.Query[0], f.Params)
	if combos < 100 { // ~80*80 under independence
		t.Errorf("ParamCombos = %g", combos)
	}
	avg := est.AvgGroupSize(f.Query[0], f.Params)
	if avg <= 0 {
		t.Errorf("AvgGroupSize = %g", avg)
	}

	// Exact survivor fraction for a single-atom single-param subquery must
	// match direct measurement.
	sub, err := core.UnionSubquery(f.Query, []datalog.Param{"1"})
	if err != nil {
		t.Fatal(err)
	}
	frac := est.SurvivorFraction(sub, []datalog.Param{"1"}, 5)
	exact := est.Stats().SurvivorFraction("baskets", "Item", 5)
	if frac != exact {
		t.Errorf("SurvivorFraction = %g, want exact %g", frac, exact)
	}
	if frac <= 0 || frac >= 1 {
		t.Errorf("survivor fraction %g not informative for skewed data", frac)
	}
}

func TestEstimateFilterBenefit(t *testing.T) {
	db := medicalDB()
	est := NewEstimator(db)
	f := paper.Medical(5)
	b, err := est.EstimateFilter(f, []datalog.Param{"s"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cost <= 0 || b.SurvivorFrac < 0 || b.SurvivorFrac > 1 {
		t.Errorf("benefit = %+v", b)
	}
	if !strings.Contains(b.String(), "params") {
		t.Errorf("String = %q", b)
	}
	if _, err := est.EstimateFilter(f, []datalog.Param{"zz"}, 5); err == nil {
		t.Error("unknown param should error")
	}
}

func TestPlanWithParamSetsVariantsAgree(t *testing.T) {
	db := medicalDB()
	f := paper.Medical(5)
	direct, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string][][]datalog.Param{
		"none":      nil,
		"okS":       {{"s"}},
		"okM":       {{"m"}},
		"both":      {{"s"}, {"m"}},
		"pair":      {{"s", "m"}},
		"all three": {{"s"}, {"m"}, {"s", "m"}},
	}
	for name, sets := range variants {
		plan, err := PlanWithParamSets(f, sets)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := plan.Execute(db, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Answer.Equal(direct) {
			t.Errorf("%s: answer differs from direct\n%s", name, plan)
		}
	}
}

// example44Config shapes the medical data to Example 4.4's narrative:
// rare symptoms (patients-per-symptom below threshold 20), few popular
// medicines (patients-per-medicine far above it).
func example44Config() workload.MedicalConfig {
	return workload.MedicalConfig{
		Patients:            800,
		Diseases:            20,
		Symptoms:            400,
		Medicines:           4,
		SymptomsPerDisease:  4,
		MedicinesPerDisease: 1,
		ExhibitRate:         0.5,
		NoiseRate:           0.6,
		SideEffects:         []workload.SideEffect{{Medicine: 1, Symptom: 399, Rate: 0.4}},
		Seed:                23,
	}
}

func TestPlanStaticChoosesUsefulFilters(t *testing.T) {
	// On data with many rare symptoms and few popular medicines, the cost
	// model must select the symptom filter and not the medicine filter —
	// the paper's Example 3.2 intuition.
	db := workload.Medical(example44Config())
	est := NewEstimator(db)
	f := paper.Medical(20)
	plan, err := PlanStatic(f, est, nil)
	if err != nil {
		t.Fatal(err)
	}
	rendered := plan.String()
	if !strings.Contains(rendered, "ok_s($s)") {
		t.Errorf("static plan did not select the symptom filter:\n%s", rendered)
	}
	if strings.Contains(rendered, "ok_m($m)") {
		t.Errorf("static plan selected the unproductive medicine filter:\n%s", rendered)
	}
	res, err := plan.Execute(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := f.Eval(db, nil)
	if !res.Answer.Equal(direct) {
		t.Error("static plan answer differs from direct")
	}
}

func TestPlanWithParamSetsOneStep(t *testing.T) {
	f := paper.Medical(5)
	plan, err := PlanWithParamSets(f, [][]datalog.Param{{"m"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "ok_m($m)") {
		t.Errorf("forced set missing:\n%s", plan)
	}
	if len(plan.Steps) != 2 {
		t.Errorf("steps = %d, want 2", len(plan.Steps))
	}
}

func TestPlanStaticCutoffMonotone(t *testing.T) {
	// A stricter survivor cutoff can only select a subset of the filter
	// steps a looser one selects.
	db := medicalDB()
	est := NewEstimator(db)
	f := paper.Medical(5)
	strict, err := PlanStatic(f, est, &StaticOptions{SurvivorCutoff: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := PlanStatic(f, est, &StaticOptions{SurvivorCutoff: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Steps) > len(loose.Steps) {
		t.Errorf("strict cutoff chose %d steps, loose %d", len(strict.Steps), len(loose.Steps))
	}
	strictNames := make(map[string]bool)
	for _, s := range strict.Steps {
		strictNames[s.Name] = true
	}
	for name := range strictNames {
		found := false
		for _, s := range loose.Steps {
			if s.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("strict step %q missing from loose plan", name)
		}
	}
}

func TestPlanSharedFilter(t *testing.T) {
	db := workload.Baskets(workload.BasketConfig{Baskets: 600, Items: 200, MeanSize: 5, Skew: 1.0, Seed: 12})
	f := paper.MarketBasket(5)
	plan, err := PlanSharedFilter(f, "1")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 2 {
		t.Fatalf("steps = %d, want 2 (one shared filter + final)", len(plan.Steps))
	}
	rendered := plan.String()
	if !strings.Contains(rendered, "ok_1($1)") || !strings.Contains(rendered, "ok_1($2)") {
		t.Errorf("final step should reference ok_1 for both params:\n%s", rendered)
	}
	res, err := plan.Execute(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := f.Eval(db, nil)
	if !res.Answer.Equal(direct) {
		t.Error("shared-filter plan differs from direct")
	}

	// Asymmetric flock: construction must fail validation.
	if _, err := PlanSharedFilter(paper.Medical(5), "s"); err == nil {
		t.Error("shared filter on the asymmetric medical flock should fail")
	}
}

func TestPlanCascadePathFlock(t *testing.T) {
	db := workload.Graph(workload.DefaultGraph(800, 5))
	f := paper.Path(2, 5)
	direct, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	for depth := 0; depth <= 3; depth++ {
		plan, err := PlanCascade(f, depth)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		wantSteps := depth + 1
		if depth > 2 { // only 2 proper prefixes exist for n=2 (3 subgoals)
			wantSteps = 3
		}
		if len(plan.Steps) != wantSteps {
			t.Errorf("depth %d: steps = %d, want %d", depth, len(plan.Steps), wantSteps)
		}
		res, err := plan.Execute(db, nil)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if !res.Answer.Equal(direct) {
			t.Errorf("depth %d: cascade answer differs", depth)
		}
	}
	// Deeper steps only shrink the candidate set.
	plan, _ := PlanCascade(f, 3)
	res, _ := plan.Execute(db, nil)
	for i := 1; i < len(res.Steps); i++ {
		if res.Steps[i].Rows > res.Steps[i-1].Rows {
			t.Errorf("cascade step %d grew: %v", i, res.Steps)
		}
	}
}

func TestPlanCascadeRejectsUnions(t *testing.T) {
	f := paper.WebWords(5)
	if _, err := PlanCascade(f, 2); err == nil {
		t.Error("cascade on a union flock should error")
	}
}

func TestPlanLevelwise(t *testing.T) {
	db := medicalDB()
	f := paper.Medical(5)
	plan, err := PlanLevelwise(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Singleton steps for $m and $s, then the final step.
	if len(plan.Steps) != 3 {
		t.Errorf("levelwise steps = %d:\n%s", len(plan.Steps), plan)
	}
	res, err := plan.Execute(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := f.Eval(db, nil)
	if !res.Answer.Equal(direct) {
		t.Error("levelwise answer differs")
	}
}

func TestEvalDynamicMedical(t *testing.T) {
	db := medicalDB()
	f := paper.Medical(5)
	res, err := EvalDynamic(db, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(direct) {
		t.Fatalf("dynamic answer differs:\n%s", res)
	}
	if len(res.Decisions) == 0 {
		t.Fatal("no decisions recorded")
	}
	if !strings.Contains(res.String(), "answer:") {
		t.Errorf("summary = %q", res)
	}
}

// TestDynamicExample44Narrative reproduces Example 4.4 with the Fig. 8
// join order pinned (exhibits, then treatments, then diagnoses): the
// evaluator must FILTER on $s after the exhibits leaf (patients-per-
// symptom below the threshold) and must consider ($s,$m) at the first
// interior node.
func TestDynamicExample44Narrative(t *testing.T) {
	db := workload.Medical(example44Config())
	f := paper.Medical(20)
	// Positive atoms in body order: 0 exhibits, 1 treatments, 2 diagnoses.
	res, err := EvalDynamic(db, f, &DynamicOptions{FixedOrder: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 3 {
		t.Fatalf("decisions = %d:\n%s", len(res.Decisions), res)
	}
	first := res.Decisions[0]
	if paramSetKey(first.Params) != "s" || !first.Filtered {
		t.Errorf("after exhibits: want FILTER on $s, got %s", first)
	}
	second := res.Decisions[1]
	if paramSetKey(second.Params) != "m\x00s" {
		t.Errorf("after treatments: want ($m,$s) decision, got %s", second)
	}
	direct, _ := f.Eval(db, nil)
	if !res.Answer.Equal(direct) {
		t.Error("dynamic answer differs from direct")
	}
}

// TestDynamicGreedySkipsMedicineLeaf is the other half of the Example 4.4
// narrative: when the join order starts at the treatments leaf, the
// patients-per-medicine ratio is far above the threshold and the
// evaluator must skip filtering $m there.
func TestDynamicGreedySkipsMedicineLeaf(t *testing.T) {
	db := workload.Medical(example44Config())
	f := paper.Medical(20)
	// treatments first (index 1), then diagnoses, then exhibits.
	res, err := EvalDynamic(db, f, &DynamicOptions{FixedOrder: []int{1, 2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Decisions[0]
	if paramSetKey(first.Params) != "m" || first.Filtered {
		t.Errorf("after treatments: want skip on $m, got %s", first)
	}
	direct, _ := f.Eval(db, nil)
	if !res.Answer.Equal(direct) {
		t.Error("dynamic answer differs from direct")
	}
}

func TestEvalDynamicUnionFallsBack(t *testing.T) {
	db := workload.Web(workload.DefaultWeb(150, 9))
	f := paper.WebWords(3)
	res, err := EvalDynamic(db, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilterCount() != 0 {
		t.Errorf("union flock must not be filtered mid-rule; got %d filters", res.FilterCount())
	}
	direct, _ := f.Eval(db, nil)
	if !res.Answer.Equal(direct) {
		t.Error("dynamic union answer differs from direct")
	}
}

func TestEvalDynamicRejectsNonMonotone(t *testing.T) {
	f := core.MustParse(`
QUERY:
answer(B,W) :- baskets(B,$1) AND importance(B,W)
FILTER:
MIN(answer.W) >= 3`)
	db := workload.Baskets(workload.BasketConfig{Baskets: 10, Items: 5, MeanSize: 2, Skew: 0, Seed: 1})
	if err := workload.AttachWeights(db, 5, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := EvalDynamic(db, f, nil); err == nil || !strings.Contains(err.Error(), "monotone") {
		t.Errorf("expected monotonicity error, got %v", err)
	}
}

func TestDynamicRatioExtremes(t *testing.T) {
	db := medicalDB()
	f := paper.Medical(5)
	direct, _ := f.Eval(db, nil)

	// Ratio near zero: never filter; still correct.
	res, err := EvalDynamic(db, f, &DynamicOptions{FilterRatio: 1e-12, RefilterRatio: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.FilterCount() != 0 {
		t.Errorf("tiny ratio filtered %d times", res.FilterCount())
	}
	if !res.Answer.Equal(direct) {
		t.Error("no-filter dynamic differs")
	}

	// Huge ratio: filter at every eligible node; still correct.
	res, err = EvalDynamic(db, f, &DynamicOptions{FilterRatio: 1e12, RefilterRatio: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if res.FilterCount() == 0 {
		t.Error("huge ratio never filtered")
	}
	if !res.Answer.Equal(direct) {
		t.Error("aggressive dynamic differs")
	}
}

func TestDynamicMatchesDirectOnWeighted(t *testing.T) {
	db := workload.Baskets(workload.BasketConfig{Baskets: 400, Items: 60, MeanSize: 4, Skew: 1.0, Seed: 77})
	if err := workload.AttachWeights(db, 5, 78); err != nil {
		t.Fatal(err)
	}
	f := paper.WeightedBasket(12)
	res, err := EvalDynamic(db, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(direct) {
		t.Error("dynamic weighted answer differs from direct")
	}
}

// TestDynamicRefilterSameParamSet exercises §4.4's other trigger: a
// repeat FILTER when a later intermediate with the SAME parameter set has
// an average group size "significantly lower than it was at any previous
// step". The Fig. 6 path flock visits parameter set {$1} at every join;
// on a dead-end-heavy graph the ratio collapses along the path.
func TestDynamicRefilterSameParamSet(t *testing.T) {
	// A layered graph where the second join is highly selective: 25 "big"
	// roots fan out to 25 successors each and 25 "small" roots to 5 each
	// (average 15 < threshold 20, so the fresh {$1} set filters), and only
	// every 10th successor continues onward (rows per root collapse to ~3,
	// far below 0.9x the previous ratio, so {$1} re-filters).
	arc := storage.NewRelation("arc", "From", "To")
	node := func(kind string, i, j int) storage.Value {
		return storage.Str(fmt.Sprintf("%s_%d_%d", kind, i, j))
	}
	for r := 0; r < 50; r++ {
		fanout := 25
		if r >= 25 {
			fanout = 5
		}
		for j := 0; j < fanout; j++ {
			arc.Insert(storage.Tuple{node("r", r, 0), node("x", r, j)})
			if j%10 == 0 {
				arc.Insert(storage.Tuple{node("x", r, j), node("y", r, j)})
			}
		}
	}
	db := storage.NewDatabase()
	db.Add(arc)
	f := paper.Path(2, 20)
	res, err := EvalDynamic(db, f, &DynamicOptions{
		FixedOrder:    []int{0, 1, 2},
		FilterRatio:   1.0,
		RefilterRatio: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expect at least two filters over the same param set {$1}: one at
	// the first arc (fresh set) and another when the dead ends slash the
	// ratio.
	filters := 0
	for _, d := range res.Decisions {
		if paramSetKey(d.Params) == "1" && d.Filtered {
			filters++
		}
	}
	if filters < 2 {
		t.Fatalf("expected a re-filter on {$1}; decisions:\n%s", res)
	}
	direct, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(direct) {
		t.Error("refiltering changed the answer")
	}
}

// TestDynamicUnionRandomized cross-checks the dynamic evaluator on the
// union flock across random web workloads (it must fall back soundly).
func TestDynamicUnionRandomized(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		db := workload.Web(workload.WebConfig{
			Docs: 100 + int(seed)*40, Vocab: 300, TitleWords: 3,
			AnchorsPerDoc: 2, AnchorWords: 2, Skew: 0.8, Seed: seed,
		})
		f := paper.WebWords(2 + int(seed)%3)
		res, err := EvalDynamic(db, f, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		direct, err := f.Eval(db, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Answer.Equal(direct) {
			t.Fatalf("seed %d: dynamic union differs", seed)
		}
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{After: "exhibits(P,$s)", Params: []datalog.Param{"s"}, AvgGroup: 3.5, Filtered: true, RowsBefore: 100, RowsAfter: 40}
	s := d.String()
	for _, want := range []string{"exhibits", "3.50", "FILTER", "100", "40"} {
		if !strings.Contains(s, want) {
			t.Errorf("decision %q missing %q", s, want)
		}
	}
	d.Filtered = false
	if !strings.Contains(d.String(), "skip") {
		t.Errorf("unfiltered decision %q", d.String())
	}
}
