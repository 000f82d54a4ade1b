package eval

import (
	"context"
	"errors"
	"testing"
	"time"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// bigPairsDB builds a database whose self-join triple rule explodes
// quadratically: pairs(G, X) with n rows per group, so joining three
// copies on G yields groups*n^3 intermediate tuples — enough work that
// a canceled or budgeted evaluation must abort early to finish fast.
func bigPairsDB(groups, n int) *storage.Database {
	rel := storage.NewRelation("pairs", "G", "X")
	for g := 0; g < groups; g++ {
		for i := 0; i < n; i++ {
			rel.InsertValues(storage.Int(int64(g)), storage.Int(int64(i)))
		}
	}
	db := storage.NewDatabase()
	db.Add(rel)
	return db
}

func explosiveRule(t *testing.T) *datalog.Rule {
	t.Helper()
	return mustRule(t, "answer(G,X,Y,Z) :- pairs(G,X) AND pairs(G,Y) AND pairs(G,Z)")
}

// modeNames names both executors, for subtests and messages.
var modeNames = []string{ExecStream: "stream", ExecMaterialize: "materialize"}

func bothModes(t *testing.T, f func(t *testing.T, mode ExecMode)) {
	t.Helper()
	for _, mode := range []ExecMode{ExecStream, ExecMaterialize} {
		t.Run(modeNames[mode], func(t *testing.T) { f(t, mode) })
	}
}

func TestPreCanceledContextAborts(t *testing.T) {
	db := bigPairsDB(4, 30)
	r := explosiveRule(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bothModes(t, func(t *testing.T, mode ExecMode) {
		_, err := EvalRule(db, r, nil, &Options{Exec: mode, Ctx: ctx})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	})
}

func TestWallDeadlineAbortsWithinBound(t *testing.T) {
	// A workload that runs far longer than the 10ms wall budget; the
	// abort must be prompt (one batch / one relation op), so finishing
	// within the generous 5s harness bound proves cooperative exit.
	db := bigPairsDB(6, 48)
	r := explosiveRule(t)
	bothModes(t, func(t *testing.T, mode ExecMode) {
		start := time.Now()
		_, err := EvalRule(db, r, nil, &Options{Exec: mode, Limits: Limits{Wall: 10 * time.Millisecond}})
		elapsed := time.Since(start)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v (after %v), want ErrCanceled", err, elapsed)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("abort took %v, want well under the harness bound", elapsed)
		}
	})
}

func TestCancelMidEvaluationAborts(t *testing.T) {
	db := bigPairsDB(6, 48)
	r := explosiveRule(t)
	bothModes(t, func(t *testing.T, mode ExecMode) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := EvalRule(db, r, nil, &Options{Exec: mode, Ctx: ctx})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v (after %v), want ErrCanceled", err, time.Since(start))
		}
	})
}

func TestTupleBudgetAborts(t *testing.T) {
	db := bigPairsDB(4, 30)
	r := explosiveRule(t)
	bothModes(t, func(t *testing.T, mode ExecMode) {
		_, err := EvalRule(db, r, nil, &Options{Exec: mode, Limits: Limits{MaxTuples: 1000}})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded", err)
		}
	})
}

func TestMaxRowsAborts(t *testing.T) {
	db := bigPairsDB(2, 10)
	r := explosiveRule(t)
	bothModes(t, func(t *testing.T, mode ExecMode) {
		_, err := EvalRule(db, r, nil, &Options{Exec: mode, Limits: Limits{MaxRows: 5}})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded", err)
		}
	})
}

// TestGenerousLimitsPreserveAnswers is the budgets-don't-change-answers
// half of the contract: limits that are set but never hit must yield the
// exact relation the unlimited engine computes, in both modes and at
// several worker counts.
func TestGenerousLimitsPreserveAnswers(t *testing.T) {
	db := bigPairsDB(3, 8)
	r := explosiveRule(t)
	baseline, err := EvalRule(db, r, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	generous := Limits{Wall: time.Hour, MaxTuples: 1 << 30, MaxRows: 1 << 30}
	for _, mode := range []ExecMode{ExecStream, ExecMaterialize} {
		name := modeNames[mode]
		got, err := EvalRule(db, r, nil, &Options{Exec: mode, Ctx: context.Background(), Limits: generous})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(baseline) {
			t.Fatalf("%s: answer differs from unlimited baseline", name)
		}
	}
}

func TestMaxRowsExactlyAtAnswerSizePasses(t *testing.T) {
	// The budget is a cap, not a truncation: an answer of exactly
	// MaxRows rows must succeed untouched.
	db := basketsDB()
	r := mustRule(t, "answer(B) :- baskets(B,beer) AND baskets(B,diapers)")
	bothModes(t, func(t *testing.T, mode ExecMode) {
		got, err := EvalRule(db, r, nil, &Options{Exec: mode, Limits: Limits{MaxRows: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 2 {
			t.Fatalf("got %d rows, want 2", got.Len())
		}
	})
}
