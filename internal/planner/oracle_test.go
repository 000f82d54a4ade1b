package planner

import (
	"math/rand"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/paper"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// TestAllStrategiesAgreeRandomized runs every evaluation strategy — direct,
// naive oracle, static plans at several cutoffs, level-wise, and dynamic at
// several ratios — over randomized small datasets and checks they agree.
func TestAllStrategiesAgreeRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		db := workload.Baskets(workload.BasketConfig{
			Baskets:  20 + rng.Intn(60),
			Items:    4 + rng.Intn(10),
			MeanSize: 2 + rng.Intn(3),
			Skew:     rng.Float64() * 1.5,
			Seed:     rng.Int63(),
		})
		threshold := 1 + rng.Intn(5)
		f := paper.MarketBasket(threshold)

		want, err := f.EvalNaive(db, nil)
		if err != nil {
			t.Fatalf("trial %d naive: %v", trial, err)
		}
		check := func(name string, got *storage.Relation, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d %s differs (threshold %d)\ngot:\n%s\nwant:\n%s",
					trial, name, threshold, got.Dump(), want.Dump())
			}
		}

		direct, err := f.Eval(db, nil)
		check("direct", direct, err)

		est := NewEstimator(db)
		for _, cutoff := range []float64{0.1, 0.5, 0.9} {
			plan, err := PlanStatic(f, est, &StaticOptions{SurvivorCutoff: cutoff})
			if err != nil {
				t.Fatalf("trial %d static(%g): %v", trial, cutoff, err)
			}
			res, err := plan.Execute(db, nil)
			check("static", res.Answer, err)
		}

		lw, err := PlanLevelwise(f, 0)
		if err != nil {
			t.Fatalf("trial %d levelwise: %v", trial, err)
		}
		lwRes, err := lw.Execute(db, nil)
		check("levelwise", lwRes.Answer, err)

		for _, ratio := range []float64{0.2, 1.0, 5.0} {
			res, err := EvalDynamic(db, f, &DynamicOptions{FilterRatio: ratio})
			if err != nil {
				t.Fatalf("trial %d dynamic(%g): %v", trial, ratio, err)
			}
			check("dynamic", res.Answer, err)
		}
	}
}

// TestCascadeAgreesRandomizedGraphs sweeps cascade depths on random graphs
// against the direct evaluator for the Fig. 6 path flock.
func TestCascadeAgreesRandomizedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		db := workload.Graph(workload.GraphConfig{
			Nodes:       60 + rng.Intn(200),
			OutDegree:   1 + rng.Intn(3),
			Hubs:        1 + rng.Intn(5),
			HubDegree:   5 + rng.Intn(10),
			DeadEndFrac: rng.Float64() * 0.7,
			Seed:        rng.Int63(),
		})
		n := 1 + rng.Intn(3)
		f := paper.Path(n, 1+rng.Intn(4))
		direct, err := f.Eval(db, nil)
		if err != nil {
			t.Fatalf("trial %d direct: %v", trial, err)
		}
		for depth := 0; depth <= n+1; depth++ {
			plan, err := PlanCascade(f, depth)
			if err != nil {
				t.Fatalf("trial %d depth %d: %v", trial, depth, err)
			}
			res, err := plan.Execute(db, nil)
			if err != nil {
				t.Fatalf("trial %d depth %d exec: %v", trial, depth, err)
			}
			if !res.Answer.Equal(direct) {
				t.Fatalf("trial %d depth %d differs", trial, depth)
			}
		}
	}
}

// TestUnionStaticAgrees checks §3.4: static plans over union flocks (one
// subquery per rule) agree with direct evaluation on web data.
func TestUnionStaticAgrees(t *testing.T) {
	db := workload.Web(workload.DefaultWeb(200, 41))
	f := paper.WebWords(3)
	direct, err := f.Eval(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, sets := range [][][]datalog.Param{
		{{"1"}},
		{{"2"}},
		{{"1"}, {"2"}},
	} {
		plan, err := PlanWithParamSets(f, sets)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Execute(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Answer.Equal(direct) {
			t.Errorf("union plan %v differs from direct", sets)
		}
	}
}
