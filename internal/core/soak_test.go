package core

import (
	"math/rand"
	"testing"
)

// TestSoakEquivalence is a heavier randomized pass over the full strategy
// matrix (skipped under -short): larger domains and more trials than the
// standard oracle tests, catching rare-shape bugs the fast suite misses.
func TestSoakEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 600; trial++ {
		db := randomFlockDB(rng)
		f := randomFlock(rng)
		naive, err := f.EvalNaive(db, nil)
		if err != nil {
			t.Fatalf("trial %d naive: %v\n%s", trial, err, f)
		}
		direct, err := f.Eval(db, nil)
		if err != nil {
			t.Fatalf("trial %d direct: %v\n%s", trial, err, f)
		}
		if !direct.Equal(naive) {
			t.Fatalf("trial %d: direct != naive\n%s\ndirect:\n%s\nnaive:\n%s",
				trial, f, direct.Dump(), naive.Dump())
		}
		plan, err := randomLegalPlan(f, rng)
		if err != nil {
			t.Fatalf("trial %d plan: %v\n%s", trial, err, f)
		}
		res, err := plan.Execute(db, nil)
		if err != nil {
			t.Fatalf("trial %d plan exec: %v\n%s", trial, err, plan)
		}
		if !res.Answer.Equal(naive) {
			t.Fatalf("trial %d: plan != naive\n%s", trial, plan)
		}
	}
}
