package experiments

import (
	"fmt"
	"strings"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/paper"
	"queryflocks/internal/planner"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// E3 reproduces Figs. 3 and 5: the medical side-effect flock under every
// plan the paper's Example 3.2 discusses — no pre-filter, symptom filter
// (subquery 1), medicine filter (subquery 2), both (the Fig. 5 plan), the
// pair filter (subquery 4), and all of them together. Every plan must
// return the identical answer; the Fig. 5 plan is expected to beat the
// unfiltered evaluation on data where most symptoms are rare.
func E3(cfg Config) (*Table, error) {
	const support = 20
	mcfg := workload.MedicalConfig{
		Patients:            cfg.scaled(20_000),
		Diseases:            50,
		Symptoms:            cfg.scaled(20_000), // large universe keeps noise symptoms below support
		Medicines:           100,
		SymptomsPerDisease:  4,
		MedicinesPerDisease: 2,
		ExhibitRate:         0.6,
		ExtraMedicines:      2.0, // polypharmacy: the exhibits-treatments join fans out per patient
		NoiseRate:           3.0, // most exhibits tuples carry rare symptoms (Ex. 3.2's condition for subquery 1)
		SideEffects: []workload.SideEffect{
			{Medicine: 3, Symptom: 1, Rate: 0.4},
			{Medicine: 7, Symptom: 5, Rate: 0.3},
		},
		Seed: cfg.Seed,
	}
	db := workload.Medical(mcfg)
	f := paper.Medical(support)

	variants := []struct {
		name string
		sets [][]datalog.Param
	}{
		{"no pre-filter", nil},
		{"okS (subquery 1)", [][]datalog.Param{{"s"}}},
		{"okM (subquery 2)", [][]datalog.Param{{"m"}}},
		{"okS + okM (Fig. 5)", [][]datalog.Param{{"s"}, {"m"}}},
		{"pair filter (subquery 4)", [][]datalog.Param{{"s", "m"}}},
		{"okS + okM + pair", [][]datalog.Param{{"s"}, {"m"}, {"s", "m"}}},
	}

	t := &Table{
		ID:     "E3",
		Title:  "Figs. 3 & 5 — medical flock under the Example 3.2 plan space",
		Header: []string{"plan", "time", "step survivors", "answer"},
	}

	var reference *storage.Relation
	var baseTime, fig5Time string
	var base, fig5 float64
	for _, v := range variants {
		plan, err := planner.PlanWithParamSets(f, v.sets)
		if err != nil {
			return nil, fmt.Errorf("E3 %s: %w", v.name, err)
		}
		var res *struct {
			answer *storage.Relation
			steps  string
		}
		tr := cfg.Instrument()
		d, err := timed(func() error {
			r, err := plan.Execute(db, cfg.TracedOpts(tr))
			if err != nil {
				return err
			}
			var parts []string
			for _, s := range r.Steps[:len(r.Steps)-1] {
				parts = append(parts, fmt.Sprintf("%s=%d", s.Name, s.Rows))
			}
			res = &struct {
				answer *storage.Relation
				steps  string
			}{r.Answer, strings.Join(parts, " ")}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("E3 %s: %w", v.name, err)
		}
		if res.steps == "" {
			res.steps = "-"
		}
		t.AddRow(v.name, ms(d), res.steps, fmt.Sprintf("%d", res.answer.Len()))
		t.AddReport(tr, v.name, cfg.Workers, res.answer.Len())
		if reference == nil {
			reference = res.answer
			base = float64(d)
			baseTime = ms(d)
		} else if !res.answer.Equal(reference) {
			return nil, fmt.Errorf("E3: plan %q changed the answer", v.name)
		}
		if v.name == "okS + okM (Fig. 5)" {
			fig5 = float64(d)
			fig5Time = ms(d)
		}
	}
	if err := t.AddPipeline(cfg, "no pre-filter", func(tr *eval.Trace) (*storage.Relation, error) {
		plan, err := planner.PlanWithParamSets(f, nil)
		if err != nil {
			return nil, err
		}
		res, err := plan.Execute(db, &core.EvalOptions{Workers: cfg.Workers, Trace: tr})
		if err != nil {
			return nil, err
		}
		return res.Answer, nil
	}); err != nil {
		return nil, fmt.Errorf("E3: %w", err)
	}
	t.AddNote("all plans return the same answer (verified)")
	t.AddNote("Fig. 5 plan %s vs unfiltered %s: %.1fx", fig5Time, baseTime, base/fig5)
	return t, nil
}
