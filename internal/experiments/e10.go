package experiments

import (
	"fmt"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/paper"
	"queryflocks/internal/planner"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// E10 quantifies the statistics question §4.4 raises ("we may want to do
// substantial gathering of statistics to support the filter/don't filter
// decision"): for each candidate subquery of Example 3.2, how close do
// the closed-form independence model and a 30% entity sample come to the
// exact survivor fraction? The filter/skip decision at a 0.5 cutoff is
// shown for each estimator.
func E10(cfg Config) (*Table, error) {
	const support = 20
	db := workload.Medical(workload.MedicalConfig{
		Patients:            cfg.scaled(20_000),
		Diseases:            20,
		Symptoms:            cfg.scaled(8_000),
		Medicines:           6,
		SymptomsPerDisease:  4,
		MedicinesPerDisease: 1,
		ExhibitRate:         0.5,
		ExtraMedicines:      1.5,
		NoiseRate:           2.5,
		SideEffects: []workload.SideEffect{
			{Medicine: 1, Symptom: 17, Rate: 0.4},
		},
		Seed: cfg.Seed,
	})
	est := planner.NewEstimator(db)
	f := paper.Medical(support)
	rule := f.Query[0]

	t := &Table{
		ID:     "E10",
		Title:  "§4.4 statistics — exact vs. modeled vs. sampled survivor fractions (Ex. 3.2 subqueries)",
		Header: []string{"subquery", "params", "exact", "model", "sampled(30%)"},
	}

	cases := []struct {
		name   string
		sub    datalog.Union
		params []datalog.Param
	}{
		{"(1) exhibits", datalog.Union{rule.DeleteSubgoals(1, 2, 3)}, []datalog.Param{"s"}},
		{"(2) treatments", datalog.Union{rule.DeleteSubgoals(0, 2, 3)}, []datalog.Param{"m"}},
		{"(3) unexplained symptom", datalog.Union{rule.DeleteSubgoals(1)}, []datalog.Param{"s"}},
		{"(4) symptom-medicine pair", datalog.Union{rule.DeleteSubgoals(2, 3)}, []datalog.Param{"m", "s"}},
	}
	for _, c := range cases {
		exact, err := exactFraction(db, est, c.sub, c.params, support, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("E10 %s: %w", c.name, err)
		}
		model := est.SurvivorFraction(c.sub, c.params, support)
		sampled, err := est.SampledSurvivorFraction(c.sub, c.params, support,
			&planner.SampleOptions{Fraction: 0.3, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("E10 %s: %w", c.name, err)
		}
		t.AddRow(c.name, fmt.Sprintf("%v", c.params),
			verdictCell(exact, exact), verdictCell(model, exact), verdictCell(sampled, exact))
	}
	t.AddNote("filter/skip column marks show the 0.5-cutoff decision; ✓ = same decision as exact")
	t.AddNote("the closed-form model is exact for single-atom single-param subqueries ((1),(2)) and " +
		"approximate on joins ((3),(4)); sampling tracks the exact fraction everywhere")
	return t, nil
}

// exactFraction computes the true survivor fraction of a subquery.
func exactFraction(db *storage.Database, est *planner.Estimator, sub datalog.Union, params []datalog.Param, support, workers int) (float64, error) {
	spec := datalog.FilterSpec{
		Agg: datalog.AggCount, Op: datalog.Ge, Threshold: storage.Int(int64(support)),
	}
	flock, err := core.New(sub, spec)
	if err != nil {
		return 0, err
	}
	survivors, err := flock.Eval(db, &core.EvalOptions{Workers: workers})
	if err != nil {
		return 0, err
	}
	denom := 1.0
	for _, p := range params {
		best := -1.0
		for _, r := range sub {
			d := est.ParamCombos(r, []datalog.Param{p})
			if best < 0 || d < best {
				best = d
			}
		}
		denom *= best
	}
	if denom <= 0 {
		return 0, fmt.Errorf("no candidate assignments")
	}
	return float64(survivors.Len()) / denom, nil
}

// verdictCell renders a fraction with its filter/skip decision relative to
// the exact decision at a 0.5 cutoff.
func verdictCell(frac, exact float64) string {
	const cutoff = 0.5
	mark := "✓"
	if (frac < cutoff) != (exact < cutoff) {
		mark = "✗"
	}
	decision := "skip"
	if frac < cutoff {
		decision = "filter"
	}
	return fmt.Sprintf("%.4f %s %s", frac, decision, mark)
}
