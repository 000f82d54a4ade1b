package physical

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the cooperative cancellation and resource-budget layer
// shared by both executors. A query carries a context.Context plus a
// Limits value; the pair resolves (once per query, so multi-step plans
// share one clock) into a Gate, the checkpoint that streaming operators
// consult at batch boundaries and the materializing reference at
// relation boundaries. Nothing here preempts a running scan: the engine
// stays single-purpose between checkpoints and aborts at the next one,
// which bounds the reaction latency to one batch (streaming) or one
// relation operation (materializing).

// ErrCanceled reports that an evaluation stopped before completion
// because its context was canceled or its wall-clock limit expired.
// Typed: errors.Is(err, ErrCanceled) holds on every abort path.
var ErrCanceled = errors.New("evaluation canceled")

// ErrBudgetExceeded reports that an evaluation exceeded a resource
// budget (buffered-tuple or answer-row limit) and was aborted. Typed:
// errors.Is(err, ErrBudgetExceeded) holds on every budget abort path.
var ErrBudgetExceeded = errors.New("resource budget exceeded")

// Limits bounds one evaluation. The zero value means unlimited; budgets
// never change answers when not hit — they only convert runaway work
// into a prompt typed error.
type Limits struct {
	// Wall is the wall-clock budget for the whole evaluation (all steps
	// of a plan share it); 0 means no limit. The clock starts when the
	// limits resolve into a Gate (see NewGate).
	Wall time.Duration
	// MaxTuples caps the live intermediate tuples an evaluation may hold
	// at once — the same quantity the peak gauge tracks (streaming:
	// pipeline-breaker state; materializing: simultaneously-live
	// relations); 0 means no limit.
	MaxTuples int
	// MaxRows caps the answer cardinality; 0 means no limit.
	MaxRows int
}

// Zero reports whether no limit is set.
func (l Limits) Zero() bool { return l.Wall == 0 && l.MaxTuples == 0 && l.MaxRows == 0 }

// Gate is one evaluation's cancellation checkpoint: it owns the
// context, the resolved wall deadline, and the sticky first budget
// violation. Create one per query (NewGate) and share it across every
// step, rule, and operator of that query. All methods are nil-safe —
// a nil *Gate is a free, always-open checkpoint — and safe for
// concurrent use (the parts of a partitioned computation share one
// gate). A Gate value is a view: WithoutOutputCap and Pooled derive views
// with different enforcement scope over the same shared clock and
// budget state.
type Gate struct {
	state  *gateState
	limits Limits
	// pool, on a Pooled view, sums the peaks of the runs charging it.
	pool *atomic.Int64
}

// gateState is the part of a Gate shared by every derived view.
type gateState struct {
	ctx      context.Context
	deadline time.Time

	// budgetErr latches the first tuple-budget violation (atomically:
	// concurrent workers may breach simultaneously).
	budgetErr atomic.Pointer[error]
}

// NewGate resolves a context plus limits into a checkpoint, starting
// the wall clock. A nil context with zero limits yields a nil Gate, so
// the unconfigured path stays allocation- and check-free.
func NewGate(ctx context.Context, l Limits) *Gate {
	if ctx == nil && l.Zero() {
		return nil
	}
	g := &Gate{state: &gateState{ctx: ctx}, limits: l}
	if l.Wall > 0 {
		// The stored deadline bounds resource use, never answer data:
		// hitting it aborts with ErrCanceled, and unhit limits never
		// change answers (the package contract).
		//lint:ignore DL006 wall-clock deadline gates resources, not answers
		g.state.deadline = time.Now().Add(l.Wall)
	}
	return g
}

// Limits returns the gate's resource limits (zero for a nil gate).
func (g *Gate) Limits() Limits {
	if g == nil {
		return Limits{}
	}
	return g.limits
}

// WithoutOutputCap returns a view of the gate that enforces the same
// cancellation, wall clock, and tuple budget but no answer-row cap.
// Subqueries whose result is not the user-facing answer — views,
// extended answers, intermediate plan steps — run under this view, so
// MaxRows constrains only the final answer's cardinality. Nil-safe.
func (g *Gate) WithoutOutputCap() *Gate {
	if g == nil || g.limits.MaxRows == 0 {
		return g
	}
	c := *g
	c.limits.MaxRows = 0
	return &c
}

// Pooled returns a view of the gate for the concurrent runs of one
// partitioned computation: each run charges its own peak of live tuples
// to one shared sum, which the tuple budget checks, so a breach that only
// the runs together cross still aborts. Nil-safe.
func (g *Gate) Pooled() *Gate {
	if g == nil {
		return nil
	}
	c := *g
	c.pool = new(atomic.Int64)
	return &c
}

// Check reports the first cancellation or budget violation: a noted
// tuple-budget breach, context cancellation, or wall-deadline expiry,
// in that order. The returned error wraps ErrCanceled or
// ErrBudgetExceeded. Nil-safe; cheap enough for per-batch use.
func (g *Gate) Check() error {
	if g == nil {
		return nil
	}
	s := g.state
	if p := s.budgetErr.Load(); p != nil {
		return *p
	}
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			return fmt.Errorf("%w: %v", ErrCanceled, s.ctx.Err())
		default:
		}
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return fmt.Errorf("%w: wall limit %v exceeded", ErrCanceled, g.limits.Wall)
	}
	return nil
}

// NoteLive feeds the current live intermediate tuple count into the
// tuple budget; a breach latches as the sticky error the next Check
// returns. Nil-safe and safe for concurrent callers (first breach wins).
func (g *Gate) NoteLive(n int) {
	if g != nil && g.limits.MaxTuples > 0 && n > g.limits.MaxTuples {
		g.breach(n)
	}
}

// breach latches a tuple-budget violation of n live tuples.
func (g *Gate) breach(n int) {
	err := fmt.Errorf("%w: %d live intermediate tuples exceed the limit of %d",
		ErrBudgetExceeded, n, g.limits.MaxTuples)
	g.state.budgetErr.CompareAndSwap(nil, &err)
}

// CheckOutput enforces the answer-row budget against an observed answer
// cardinality. Nil-safe; a no-op on WithoutOutputCap views.
func (g *Gate) CheckOutput(rows int) error {
	if g == nil || g.limits.MaxRows <= 0 || rows <= g.limits.MaxRows {
		return nil
	}
	return fmt.Errorf("%w: answer exceeds the limit of %d rows", ErrBudgetExceeded, g.limits.MaxRows)
}
