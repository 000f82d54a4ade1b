package planner

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/paper"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// TestDynamicParallelRaceSoak runs the dynamic strategy from several
// goroutines at once over one database, with a worker setting that the
// strategy must ignore. The answers must not change. Run it under
// `go test -race`: concurrent runs share the database's dictionary and
// relation caches, as the in-process parts of a FILTER computation do.
func TestDynamicParallelRaceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("race soak skipped with -short")
	}
	db := workload.Medical(workload.DefaultMedical(1_500, 13))
	f := paper.Medical(4)
	want, err := EvalDynamic(db, f, &DynamicOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	got := make([]*DynamicResult, rounds)
	errs := make([]error, rounds)
	var wg sync.WaitGroup
	for round := range got {
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			got[round], errs[round] = EvalDynamic(db, f, &DynamicOptions{Workers: 8})
		}(round)
	}
	wg.Wait()
	for round, res := range got {
		if errs[round] != nil {
			t.Fatalf("round %d: %v", round, errs[round])
		}
		if !res.Answer.Equal(want.Answer) {
			t.Fatalf("round %d: answer changed under workers=8", round)
		}
	}
}

// TestWorkerSweepCorpus is the worker-count oracle of the partitioned
// FILTER path: for every program in examples/flocks, direct and static,
// at worker counts 0 (one per CPU), 1, 2, 3, 8 and -3 (sequential), the
// answer must be the same set as at one worker and as the boxed
// reference. fig2 and fig10 (a SUM, merged as StateSum) must report a
// merged group over as many parts as the count resolves to; fig6 binds
// different terms at the partition column (rule 3) and never merges.
func TestWorkerSweepCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "flocks")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	merges := map[string]bool{"fig2-baskets.flock": true, "fig10-weighted.flock": true, "fig6-graphpaths.flock": false}
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
			f := core.MustParse(string(src))
			db := corpusDB(t, name)
			plan, err := PlanStatic(f, NewEstimator(db), nil)
			if err != nil {
				t.Fatal(err)
			}
			run := map[string]func(*core.EvalOptions) (*storage.Relation, error){
				"direct": func(o *core.EvalOptions) (*storage.Relation, error) { return f.Eval(db, o) },
				"static": func(o *core.EvalOptions) (*storage.Relation, error) {
					res, err := plan.Execute(db, o)
					if err != nil {
						return nil, err
					}
					return res.Answer, nil
				},
			}
			for _, strategy := range []string{"direct", "static"} {
				boxed, err := run[strategy](&core.EvalOptions{Exec: eval.ExecMaterialize})
				if err != nil {
					t.Fatal(err)
				}
				one, err := run[strategy](&core.EvalOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !one.Equal(boxed) {
					t.Fatalf("%s workers=1: answer differs from the boxed reference", strategy)
				}
				for _, w := range []int{0, 2, 3, 8, -3} {
					tr := &eval.Trace{}
					got, err := run[strategy](&core.EvalOptions{Workers: w, Trace: tr})
					if err != nil {
						t.Fatalf("%s workers=%d: %v", strategy, w, err)
					}
					if !got.Equal(one) {
						t.Fatalf("%s workers=%d: answer differs from workers=1\ngot:\n%s\nwant:\n%s", strategy, w, got.Dump(), one.Dump())
					}
					parts := w
					if w == 0 {
						parts = runtime.GOMAXPROCS(0)
					}
					merged := mergedParts(tr)
					if want, ok := merges[name]; ok && strategy == "direct" {
						if want && parts > 1 && merged != parts {
							t.Errorf("direct workers=%d: merged group over %d parts, want %d", w, merged, parts)
						}
						if !want && merged != 0 {
							t.Errorf("direct workers=%d: merged group over %d parts, want none", w, merged)
						}
					}
					if parts <= 1 && merged != 0 {
						t.Errorf("%s workers=%d: merged group over %d parts at one part", strategy, w, merged)
					}
				}
			}
		})
	}
}

// mergedParts returns the part count of the first merged group event of
// a traced run, 0 when no computation ran partitioned.
func mergedParts(tr *eval.Trace) int {
	for _, e := range tr.Events() {
		if e.Op == obs.OpGroup && strings.Contains(e.Desc, "(merged ") {
			return e.Workers
		}
	}
	return 0
}

// TestWorkerSweepStateSet covers the partitioned merge of a COUNT-distinct
// whose counted column is not the partition term: a weight W repeats
// across baskets of different parts, so the parts ship value sets
// (physical.StateSet), not counts. At this threshold, summing the parts'
// counts instead would admit groups the full data rejects.
func TestWorkerSweepStateSet(t *testing.T) {
	db := corpusDB(t, "fig10-weighted.flock")
	f := core.MustParse("QUERY:\nanswer(B,W) :- baskets(B,$1) AND importance(B,W)\nFILTER:\nCOUNT(answer.W) >= 9\n")
	m, err := core.BuildMap(db, "", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := core.Shardable(m, f.Params, f.Query, f.Filter); !ok || core.Additive(m, f.Query, f.Filter) {
		t.Fatalf("want a shardable, non-additive computation on %s (%s)", m, reason)
	}
	boxed, err := f.Eval(db, &core.EvalOptions{Exec: eval.ExecMaterialize})
	if err != nil {
		t.Fatal(err)
	}
	if boxed.Len() == 0 {
		t.Fatal("empty answer proves nothing")
	}
	for _, w := range []int{2, 3, 8} {
		tr := &eval.Trace{}
		got, err := f.Eval(db, &core.EvalOptions{Workers: w, Trace: tr})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !got.Equal(boxed) {
			t.Fatalf("workers=%d: answer differs from the boxed reference\ngot:\n%s\nwant:\n%s", w, got.Dump(), boxed.Dump())
		}
		if n := mergedParts(tr); n != w {
			t.Errorf("workers=%d: merged group over %d parts", w, n)
		}
	}
}

// TestWorkerSweepBudgetSumsParts pins what the tuple budget charges at
// two workers: the sum of the two parts' peaks of live tuples. A limit
// one below the sum aborts, though each part alone stays under it; a
// limit at the sum passes.
func TestWorkerSweepBudgetSumsParts(t *testing.T) {
	db := corpusDB(t, "fig2-baskets.flock")
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "flocks", "fig2-baskets.flock"))
	if err != nil {
		t.Fatal(err)
	}
	f := core.MustParse(string(src))
	m, err := core.BuildMap(db, "", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	var peaks []int
	for i := 0; i < 2; i++ {
		part, err := m.Restrict(db, i)
		if err != nil {
			t.Fatal(err)
		}
		tr := &eval.Trace{}
		states, err := core.EvalPartialGroups(part, f.Params, f.Query, f.Filter, "flock",
			core.Additive(m, f.Query, f.Filter), &core.EvalOptions{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, tr.Report("part", 1, states.Len()).PeakTuples)
	}
	sum := peaks[0] + peaks[1]
	if max(peaks[0], peaks[1]) >= sum-1 {
		t.Fatalf("part peaks %v: one part alone would reach the limit", peaks)
	}
	run := func(limit int) error {
		_, err := f.Eval(db, &core.EvalOptions{Workers: 2, Limits: eval.Limits{MaxTuples: limit}})
		return err
	}
	if err := run(sum - 1); !errors.Is(err, eval.ErrBudgetExceeded) {
		t.Errorf("MaxTuples %d below the parts' sum %v: got %v, want a budget error", sum-1, peaks, err)
	}
	if err := run(sum); err != nil {
		t.Errorf("MaxTuples at the parts' sum %v: %v", peaks, err)
	}
}
