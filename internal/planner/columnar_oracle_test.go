package planner

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// corpusDB builds the workload database matching one examples/flocks
// program: the generators provide the relation names each figure
// references (baskets, arc, the medical quartet, the web trio).
func corpusDB(t *testing.T, name string) *storage.Database {
	t.Helper()
	switch name {
	case "fig2-baskets.flock":
		return workload.Baskets(workload.BasketConfig{Baskets: 80, Items: 10, MeanSize: 4, Skew: 1.0, Seed: 11})
	case "fig10-weighted.flock":
		db := workload.Baskets(workload.BasketConfig{Baskets: 80, Items: 10, MeanSize: 4, Skew: 1.0, Seed: 11})
		if err := workload.AttachWeights(db, 9, 13); err != nil {
			t.Fatal(err)
		}
		return db
	case "fig3-medical.flock", "multidisease-views.flock":
		return workload.Medical(workload.DefaultMedical(150, 17))
	case "fig4-webwords.flock":
		return workload.Web(workload.DefaultWeb(60, 19))
	case "fig6-graphpaths.flock":
		return workload.Graph(workload.DefaultGraph(40, 23))
	default:
		t.Fatalf("no workload generator for corpus program %s", name)
		return nil
	}
}

// TestColumnarMatchesMaterializeCorpus is the interned-execution property
// test: for every program in examples/flocks, on its generated workload
// database, the columnar ID pipeline (ExecStream) must be bit-identical
// to the sequential materializing reference (ExecMaterialize, run once)
// — equal answers (Dump equality: the same tuples, sorted) — at worker
// counts 1, 2 and 8. The dynamic strategy has no boxed twin: its answer
// must be the boxed direct one and its decisions the sequence
// expectDecisions derives. The one-step plan with no pre-filter is E3's
// pipeline workload.
func TestColumnarMatchesMaterializeCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "flocks")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty corpus")
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".flock" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			f, err := core.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			db := corpusDB(t, name)

			variants := map[string]func(int, eval.ExecMode) (*sweepAnswer, error){
				"direct": func(workers int, exec eval.ExecMode) (*sweepAnswer, error) {
					rel, err := f.Eval(db, &core.EvalOptions{Workers: workers, Exec: exec})
					return &sweepAnswer{rel: rel}, err
				},
				"static": func(workers int, exec eval.ExecMode) (*sweepAnswer, error) {
					plan, err := PlanStatic(f, NewEstimator(db), nil)
					if err != nil {
						return nil, err
					}
					res, err := plan.Execute(db, &core.EvalOptions{Workers: workers, Exec: exec})
					if err != nil {
						return nil, err
					}
					return &sweepAnswer{rel: res.Answer}, nil
				},
				"no pre-filter": func(workers int, exec eval.ExecMode) (*sweepAnswer, error) {
					plan, err := PlanWithParamSets(f, nil)
					if err != nil {
						return nil, err
					}
					res, err := plan.Execute(db, &core.EvalOptions{Workers: workers, Exec: exec})
					if err != nil {
						return nil, err
					}
					return &sweepAnswer{rel: res.Answer}, nil
				},
				"dynamic": func(workers int, _ eval.ExecMode) (*sweepAnswer, error) {
					res, err := EvalDynamic(db, f, &DynamicOptions{Workers: workers})
					if err != nil {
						return nil, err
					}
					return &sweepAnswer{rel: res.Answer, decisions: res.Decisions}, nil
				},
			}
			for vname, run := range variants {
				t.Run(vname, func(t *testing.T) {
					ref := run
					if vname == "dynamic" {
						ref = variants["direct"]
					}
					mat, err := ref(1, eval.ExecMaterialize)
					if err != nil {
						t.Fatalf("materialize: %v", err)
					}
					if vname == "dynamic" {
						mat.decisions = expectDecisions(t, db, f, DynamicOptions{})
					}
					var colDump string
					for _, w := range []int{1, 2, 8} {
						col, err := run(w, eval.ExecStream)
						if err != nil {
							t.Fatalf("columnar workers=%d: %v", w, err)
						}
						if got, want := col.rel.Dump(), mat.rel.Dump(); got != want {
							t.Fatalf("workers=%d: columnar answer not bit-identical to the materializing executor\ncolumnar:\n%s\nmaterialize:\n%s", w, got, want)
						}
						checkDecisions(t, fmt.Sprintf("workers=%d", w), col.decisions, mat.decisions)
						if colDump == "" {
							colDump = col.rel.Dump()
						} else if got := col.rel.Dump(); got != colDump {
							t.Fatalf("workers=%d: columnar answer order differs between worker counts\ngot:\n%s\nwant:\n%s", w, got, colDump)
						}
					}
				})
			}
		})
	}
}
