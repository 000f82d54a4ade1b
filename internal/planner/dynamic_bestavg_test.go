package planner

import (
	"testing"

	"queryflocks/internal/core"
)

// TestDynamicRecordsPostFilterAverage is the regression for the §4.4
// baseline bookkeeping: after a FILTER step fires, the pipeline continues
// from the reduced relation, so the remembered "average tuples per
// assignment" for that parameter set must be the post-filter average.
// The buggy version recorded the pre-filter average, so the baseline
// described a relation that no longer existed and later steps compared
// against a number far below the pipeline's actual state.
//
// The instance is built so the two behaviours produce different decision
// sequences at the third join:
//
//	after r($m,B):  36 rows / 10 assignments, avg 3.6 >= 3    -> skip
//	after s(B,C):   16 rows / 10 assignments, avg 1.6 < 1.8   -> FILTER
//	                reduced to 8 rows / 2 assignments, avg 4.0
//	after u(C,D):    2 rows /  2 assignments, avg 1.0
//
// With the post-filter baseline 3.6 (step 1's average survives as best),
// 1.0 < 0.5*3.6 and the third step re-filters. With the buggy pre-filter
// baseline 1.6, 1.0 >= 0.5*1.6 and the third step skips.
func TestDynamicRecordsPostFilterAverage(t *testing.T) {
	db := refilterDB()

	f := core.MustParse(`
QUERY:
answer(B) :- r($m,B) AND s(B,C) AND u(C,D)
FILTER:
COUNT(answer.B) >= 3`)

	res, err := EvalDynamic(db, f, &DynamicOptions{
		FixedOrder:    []int{0, 1, 2},
		FilterRatio:   1.0,
		RefilterRatio: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 3 {
		t.Fatalf("expected 3 decisions, got %d:\n%s", len(res.Decisions), res)
	}
	wantFiltered := []bool{false, true, true}
	for i, d := range res.Decisions {
		if d.Filtered != wantFiltered[i] {
			t.Errorf("decision %d (%s): filtered=%v, want %v", i, d.After, d.Filtered, wantFiltered[i])
		}
	}

	direct, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(direct) {
		t.Error("dynamic answer differs from direct evaluation")
	}
}
