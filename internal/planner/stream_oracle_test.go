package planner

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"queryflocks/internal/core"
	"queryflocks/internal/eval"
	"queryflocks/internal/paper"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// sweepWorkers is the worker grid of the streaming-vs-materializing
// oracle sweep: sequential, two-way, one per CPU, and oversubscribed.
func sweepWorkers() []int {
	n := runtime.NumCPU()
	return []int{1, 2, n, 2 * n}
}

// sweepAnswer pairs a strategy's answer with any dynamic decisions.
type sweepAnswer struct {
	rel       *storage.Relation
	decisions []Decision
}

// TestStreamingMatchesMaterializingSweep is the executor oracle: for
// every strategy (direct, static plan, level-wise plan, dynamic) the
// streaming physical executor must produce, at every worker count,
// the naive answer and the answer of the sequential materializing
// reference (run once; for the dynamic strategy, which has no boxed twin,
// the decision sequence expectDecisions derives). Streaming runs must
// additionally agree with each other (Dump equality: the same tuples,
// sorted), the contract of the partitioned FILTER path.
//
// The whole sweep runs twice: once unbounded and once under a live
// context plus generous wall/tuple/row limits, because unhit budgets
// must never change any strategy's answer in either executor.
func TestStreamingMatchesMaterializingSweep(t *testing.T) {
	cases := []struct {
		name   string
		ctx    context.Context
		limits eval.Limits
	}{
		{name: "unlimited"},
		{name: "generous limits", ctx: context.Background(),
			limits: eval.Limits{Wall: time.Hour, MaxTuples: 1 << 30, MaxRows: 1 << 30}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runOracleSweep(t, c.ctx, c.limits)
		})
	}
}

func runOracleSweep(t *testing.T, ctx context.Context, limits eval.Limits) {
	db := workload.Baskets(workload.BasketConfig{
		Baskets: 120, Items: 12, MeanSize: 4, Skew: 1.0, Seed: 7,
	})
	f := paper.MarketBasket(3)

	evalOpts := func(workers int, exec eval.ExecMode) *core.EvalOptions {
		return &core.EvalOptions{Workers: workers, Exec: exec, Ctx: ctx, Limits: limits}
	}
	runPlan := func(mk func() (*core.Plan, error)) func(int, eval.ExecMode) (*sweepAnswer, error) {
		return func(workers int, exec eval.ExecMode) (*sweepAnswer, error) {
			plan, err := mk()
			if err != nil {
				return nil, err
			}
			res, err := plan.Execute(db, evalOpts(workers, exec))
			if err != nil {
				return nil, err
			}
			return &sweepAnswer{rel: res.Answer}, nil
		}
	}
	variants := map[string]func(int, eval.ExecMode) (*sweepAnswer, error){
		"direct": func(workers int, exec eval.ExecMode) (*sweepAnswer, error) {
			rel, err := f.Eval(db, evalOpts(workers, exec))
			return &sweepAnswer{rel: rel}, err
		},
		"static": runPlan(func() (*core.Plan, error) {
			return PlanStatic(f, NewEstimator(db), nil)
		}),
		"levelwise": runPlan(func() (*core.Plan, error) {
			return PlanLevelwise(f, 0)
		}),
		"dynamic": func(workers int, _ eval.ExecMode) (*sweepAnswer, error) {
			res, err := EvalDynamic(db, f, &DynamicOptions{Workers: workers, Ctx: ctx, Limits: limits})
			if err != nil {
				return nil, err
			}
			return &sweepAnswer{rel: res.Answer, decisions: res.Decisions}, nil
		},
	}

	want, err := f.EvalNaive(db, nil)
	if err != nil {
		t.Fatal(err)
	}

	for name, run := range variants {
		t.Run(name, func(t *testing.T) {
			mat := &sweepAnswer{rel: want}
			if name == "dynamic" {
				mat.decisions = expectDecisions(t, db, f, DynamicOptions{})
			} else if mat, err = run(1, eval.ExecMaterialize); err != nil {
				t.Fatalf("materialize: %v", err)
			}
			var streamDump string
			for _, w := range sweepWorkers() {
				stream, err := run(w, eval.ExecStream)
				if err != nil {
					t.Fatalf("stream workers=%d: %v", w, err)
				}
				if !stream.rel.Equal(want) {
					t.Fatalf("workers=%d: streaming answer differs from naive oracle\ngot:\n%s", w, stream.rel.Dump())
				}
				if !stream.rel.Equal(mat.rel) {
					t.Fatalf("workers=%d: streaming and materializing answers differ\nstream:\n%s\nmaterialize:\n%s",
						w, stream.rel.Dump(), mat.rel.Dump())
				}
				checkDecisions(t, fmt.Sprintf("workers=%d", w), stream.decisions, mat.decisions)
				if streamDump == "" {
					streamDump = stream.rel.Dump()
				} else if got := stream.rel.Dump(); got != streamDump {
					t.Fatalf("workers=%d: streaming answer order differs between worker counts\ngot:\n%s\nwant:\n%s",
						w, got, streamDump)
				}
			}
		})
	}
}
