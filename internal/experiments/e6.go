package experiments

import (
	"fmt"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/paper"
	"queryflocks/internal/planner"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// E6 reproduces Figs. 8–9 / Example 4.4: dynamic selection of filter
// steps. On data shaped to the example's assumptions (rare symptoms,
// popular medicines), the dynamic evaluator pinned to the Fig. 8 join
// order must (a) filter $s after the exhibits leaf, (b) skip $m, and (c)
// filter the ($s,$m) pair after the first join — producing a plan like
// Fig. 9 — and its runtime should track the best static plan without
// needing that plan chosen in advance.
func E6(cfg Config) (*Table, error) {
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
	f := paper.Medical(support)

	t := &Table{
		ID:     "E6",
		Title:  "Figs. 8–9 / Ex. 4.4 — dynamic filter selection vs. static plans",
		Header: []string{"strategy", "time", "filters applied", "answer"},
	}

	var reference *storage.Relation
	addStatic := func(name string, sets [][]datalog.Param) (float64, error) {
		plan, err := planner.PlanWithParamSets(f, sets)
		if err != nil {
			return 0, err
		}
		var answer *storage.Relation
		tr := cfg.Instrument()
		d, err := timed(func() error {
			r, err := plan.Execute(db, cfg.TracedOpts(tr))
			if err == nil {
				answer = r.Answer
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		t.AddRow(name, ms(d), fmt.Sprintf("%d (static)", len(sets)), fmt.Sprintf("%d", answer.Len()))
		t.AddReport(tr, name, cfg.Workers, answer.Len())
		if reference == nil {
			reference = answer
		} else if !answer.Equal(reference) {
			return 0, fmt.Errorf("E6: static %q changed the answer", name)
		}
		return float64(d), nil
	}

	baseTime, err := addStatic("static: no pre-filter", nil)
	if err != nil {
		return nil, err
	}
	bestStatic, err := addStatic("static: okS + okM (Fig. 5)", [][]datalog.Param{{"s"}, {"m"}})
	if err != nil {
		return nil, err
	}

	var dres *planner.DynamicResult
	dynTrace := cfg.Instrument()
	dynTime, err := timed(func() error {
		var err error
		// Fig. 8 join order: exhibits, treatments, diagnoses.
		dres, err = planner.EvalDynamic(db, f, &planner.DynamicOptions{
			FixedOrder: []int{0, 1, 2}, Workers: cfg.Workers, Trace: dynTrace, Limits: eval.Limits{Wall: cfg.Timeout},
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("E6 dynamic: %w", err)
	}
	t.AddRow("dynamic (§4.4, Fig. 8 order)", ms(dynTime),
		fmt.Sprintf("%d (decided at run time)", dres.FilterCount()), fmt.Sprintf("%d", dres.Answer.Len()))
	t.AddReport(dynTrace, "dynamic (§4.4, Fig. 8 order)", cfg.Workers, dres.Answer.Len())
	if !dres.Answer.Equal(reference) {
		return nil, fmt.Errorf("E6: dynamic changed the answer")
	}

	if err := t.AddPipeline(cfg, "dynamic (Fig. 8 order)", func(tr *eval.Trace) (*storage.Relation, error) {
		r, err := planner.EvalDynamic(db, f, &planner.DynamicOptions{
			FixedOrder: []int{0, 1, 2}, Workers: cfg.Workers, Trace: tr, Limits: eval.Limits{Wall: cfg.Timeout},
		})
		if err != nil {
			return nil, err
		}
		return r.Answer, nil
	}); err != nil {
		return nil, fmt.Errorf("E6: %w", err)
	}

	for _, d := range dres.Decisions {
		t.AddNote("decision %s", d)
	}
	t.AddNote("dynamic vs unfiltered: %.1fx; best static vs unfiltered: %.1fx",
		baseTime/float64(dynTime), baseTime/bestStatic)
	return t, nil
}
