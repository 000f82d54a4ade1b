package planner

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/paper"
	"queryflocks/internal/physical"
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
// under the memory and the disk engine, at worker counts 0 (one per CPU),
// 1, 2, 3, 8 and -3 (sequential), the answer must be the same set as at
// one worker and as the boxed reference, and every FILTER computation
// must run in as many parts as the count resolves to: one group operator
// per part and computation, fig6 included, whose groups add up to the
// sequential run's (the parts are disjoint and cover every group).
func TestWorkerSweepCorpus(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "flocks")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
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
			f := core.MustParse(string(src))
			base := corpusDB(t, name)
			dataDir := t.TempDir()
			if err := storage.CreateDir(dataDir, base); err != nil {
				t.Fatal(err)
			}
			diskDB, _, err := storage.OpenDir(dataDir, storage.EngineDisk)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := PlanStatic(f, NewEstimator(base), nil)
			if err != nil {
				t.Fatal(err)
			}
			for engine, db := range map[string]*storage.Database{"memory": base, "disk": diskDB} {
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
				computations := map[string]int{"direct": 1, "static": len(plan.Steps)}
				for _, strategy := range []string{"direct", "static"} {
					boxed, err := run[strategy](&core.EvalOptions{Exec: eval.ExecMaterialize})
					if err != nil {
						t.Fatal(err)
					}
					oneTrace := &eval.Trace{}
					one, err := run[strategy](&core.EvalOptions{Workers: 1, Trace: oneTrace})
					if err != nil {
						t.Fatal(err)
					}
					_, groups := groupRuns(oneTrace)
					if !one.Equal(boxed) {
						t.Fatalf("%s %s workers=1: answer differs from the boxed reference", engine, strategy)
					}
					for _, w := range []int{0, 2, 3, 8, -3} {
						tr := &eval.Trace{}
						got, err := run[strategy](&core.EvalOptions{Workers: w, Trace: tr})
						if err != nil {
							t.Fatalf("%s %s workers=%d: %v", engine, strategy, w, err)
						}
						if !got.Equal(one) {
							t.Fatalf("%s %s workers=%d: answer differs from workers=1\ngot:\n%s\nwant:\n%s", engine, strategy, w, got.Dump(), one.Dump())
						}
						n, g := groupRuns(tr)
						if want := computations[strategy] * resolvedParts(w); n != want || g != groups {
							t.Errorf("%s %s workers=%d: %d group runs over %d groups, want %d over %d",
								engine, strategy, w, n, g, want, groups)
						}
					}
				}
			}
		})
	}
}

// resolvedParts is the part count a Workers setting resolves to.
func resolvedParts(w int) int {
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(w, 1)
}

// groupRuns counts the group operators a traced run executed, one per
// FILTER computation and part, and the groups they built.
func groupRuns(tr *eval.Trace) (runs, groups int) {
	for _, e := range tr.Events() {
		if e.Op == obs.OpGroup {
			runs++
			groups += e.Groups
		}
	}
	return runs, groups
}

// TestWorkerSweepNegatedLargest checks a flock that negates the largest
// relation, the one a split of the data would cut: the parts split the
// parameters instead and read the negated relation whole, so at every
// worker count the answer is the naive one.
func TestWorkerSweepNegatedLargest(t *testing.T) {
	db := corpusDB(t, "fig2-baskets.flock")
	f := core.MustParse("QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(C,$2) AND NOT baskets(B,$2) AND $1 < $2\nFILTER:\nCOUNT(answer.B) >= 20\n")
	naive, err := f.EvalNaive(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Len() == 0 {
		t.Fatal("empty answer proves nothing")
	}
	for _, w := range []int{1, 2, 3, 8} {
		tr := &eval.Trace{}
		got, err := f.Eval(db, &core.EvalOptions{Workers: w, Trace: tr})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !got.Equal(naive) {
			t.Fatalf("workers=%d: answer differs from naive\ngot:\n%s\nwant:\n%s", w, got.Dump(), naive.Dump())
		}
		if n, _ := groupRuns(tr); n != w {
			t.Errorf("workers=%d: %d group runs, want %d", w, n, w)
		}
	}
}

// TestWorkerSweepBudgetSumsParts pins what the tuple budget charges at
// two workers: the sum of the two parts' peaks of live tuples. A limit
// one below the sum aborts, though each part alone stays under it; a
// limit at the sum passes. The answer-row cap likewise applies to the
// parts' answers together.
func TestWorkerSweepBudgetSumsParts(t *testing.T) {
	db := corpusDB(t, "fig2-baskets.flock")
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "flocks", "fig2-baskets.flock"))
	if err != nil {
		t.Fatal(err)
	}
	f := core.MustParse(string(src))
	plan := compileParts(t, db, f, 2)
	var peaks []int
	for i := 0; i < 2; i++ {
		col := obs.NewCollector()
		if _, err := plan.Run(&physical.Ctx{DB: db, Col: col, Part: i}); err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, col.Report("part", 1, 0).PeakTuples)
	}
	sum := peaks[0] + peaks[1]
	if max(peaks[0], peaks[1]) >= sum-1 {
		t.Fatalf("part peaks %v: one part alone would reach the limit", peaks)
	}
	tr := &eval.Trace{}
	if _, err := f.Eval(db, &core.EvalOptions{Workers: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Report("direct", 2, 0).PeakTuples; got != sum {
		t.Errorf("traced peak at two workers %d, want the parts' sum %d", got, sum)
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
	pairs := core.MustParse("QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\nFILTER:\nCOUNT(answer.B) >= 5\n")
	answer, err := pairs.Eval(db, &core.EvalOptions{Workers: 1})
	if err != nil || answer.Len() < 4 {
		t.Fatalf("answer of %d rows (%v): too small to split", answer.Len(), err)
	}
	for _, rows := range []int{answer.Len() - 1, answer.Len()} {
		_, err := pairs.Eval(db, &core.EvalOptions{Workers: 2, Limits: eval.Limits{MaxRows: rows}})
		if over := rows < answer.Len(); over != errors.Is(err, eval.ErrBudgetExceeded) || !over && err != nil {
			t.Errorf("MaxRows %d on a %d-row answer at two workers: %v", rows, answer.Len(), err)
		}
	}
}

// compileParts compiles a one-rule flock's direct plan as the partitioned
// path does: a part check on the first parameter, then group and sink.
func compileParts(t *testing.T, db *storage.Database, f *core.Flock, parts int) *physical.Plan {
	t.Helper()
	r := f.Query[0]
	order, err := eval.JoinOrder(db, r)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]datalog.Term, 0, len(f.Params)+len(r.Head.Args))
	for _, p := range f.Params {
		out = append(out, p)
	}
	out = append(out, r.Head.Args...)
	rule, err := physical.CompileRule(db, r, physical.RuleOpts{
		Order: order, Out: out, Split: "$" + string(f.Params[0]), Parts: parts,
	})
	if err != nil {
		t.Fatal(err)
	}
	group, err := physical.NewGroup("flock", len(f.Params), f.Filter.Aggregate(), f.Filter.String(), rule)
	if err != nil {
		t.Fatal(err)
	}
	return physical.NewPlan(physical.NewMaterialize("flock", group, nil))
}
