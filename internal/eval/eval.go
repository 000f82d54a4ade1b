package eval

import (
	"context"
	"fmt"

	"queryflocks/internal/datalog"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// Limits bounds one evaluation (wall clock, live intermediate tuples,
// answer rows); the zero value is unlimited. See physical.Limits.
type Limits = physical.Limits

// Gate is the per-query cancellation and budget checkpoint shared by
// every step, rule, and operator of one evaluation. See physical.Gate.
type Gate = physical.Gate

// NewGate resolves a context plus limits into a checkpoint, starting the
// wall clock; nil context with zero limits yields a nil (free) gate.
func NewGate(ctx context.Context, l Limits) *Gate { return physical.NewGate(ctx, l) }

// Typed abort errors, re-exported so callers need not import the
// physical layer: errors.Is(err, ErrCanceled) holds when a context was
// canceled or the wall limit expired, errors.Is(err, ErrBudgetExceeded)
// when a resource budget was hit.
var (
	ErrCanceled       = physical.ErrCanceled
	ErrBudgetExceeded = physical.ErrBudgetExceeded
)

// ExecMode selects how compiled queries execute.
type ExecMode int

const (
	// ExecStream (the default) compiles rules to internal/physical plans
	// and streams columnar batches of interned value IDs through the
	// operator pipeline; intermediates materialize only at pipeline
	// breakers, and boxed Values appear only at sinks and inside
	// comparison/aggregate arithmetic.
	ExecStream ExecMode = iota
	// ExecMaterialize runs the relation-at-a-time reference executor,
	// which materializes every intermediate binding relation as boxed
	// tuples. It always runs sequentially and records no trace events;
	// it is kept as the streaming executor's differential oracle.
	ExecMaterialize
)

// Options configures rule evaluation.
type Options struct {
	// Trace, when non-nil, records every operator application of the
	// streaming executor.
	Trace *Trace
	// Exec selects the streaming physical-plan executor (default) or the
	// materializing reference (ExecMaterialize), which runs untraced,
	// whatever Trace says. Answers are identical.
	Exec ExecMode
	// Ctx, when non-nil, cancels the evaluation cooperatively: both
	// executors observe it at batch/relation boundaries and abort with
	// ErrCanceled.
	Ctx context.Context
	// Limits bounds the evaluation's wall clock, live intermediate
	// tuples, and answer rows; violations abort with ErrCanceled (wall)
	// or ErrBudgetExceeded. The zero value is unlimited, and unhit
	// limits never change answers.
	Limits Limits
	// Gate, when non-nil, is a pre-resolved cancellation checkpoint
	// shared across a multi-part evaluation (all steps of a plan share
	// one wall clock). When nil, one is derived from Ctx and Limits per
	// top-level call.
	Gate *physical.Gate
}

func (o *Options) orDefault() Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// gate returns the options' checkpoint, deriving one from Ctx and
// Limits when none was pre-resolved. May return nil (unlimited).
func (o *Options) gate() *physical.Gate {
	if o == nil {
		return nil
	}
	if o.Gate != nil {
		return o.Gate
	}
	return physical.NewGate(o.Ctx, o.Limits)
}

// withGate returns a copy of the options with the checkpoint resolved,
// so nested calls share one wall clock and budget.
func (o Options) withGate() Options {
	o.Gate = (&o).gate()
	return o
}

// EvalRule evaluates a single safe rule against db and projects the result
// onto the given output terms (deduplicated; set semantics). A nil out
// projects onto the rule's head arguments.
func EvalRule(db *storage.Database, r *datalog.Rule, out []datalog.Term, opts *Options) (*storage.Relation, error) {
	o := opts.orDefault().withGate()
	if out == nil {
		out = r.Head.Args
	}
	if o.Exec == ExecMaterialize {
		return evalRuleMaterialized(db, r, out, &o)
	}
	order, err := JoinOrder(db, r)
	if err != nil {
		return nil, err
	}
	node, err := physical.CompileRule(db, r, physical.RuleOpts{Order: order, Out: out, Dedup: true})
	if err != nil {
		return nil, err
	}
	plan := physical.NewPlan(physical.NewMaterialize("answer", node, nil))
	return RunPlan(db, plan, &o)
}

// RunPlan executes a compiled physical plan against db — either storage
// engine — recording operator events into the trace. A nil opts uses the
// defaults.
func RunPlan(db *storage.Database, plan *physical.Plan, opts *Options) (*storage.Relation, error) {
	return plan.Run(opts.orDefault().physCtx(db))
}

// RunCapture is RunPlan with the group operator under the sink in capture
// mode: it also returns the group's distinct input rows
// (physical.Plan.RunCapture).
func RunCapture(db *storage.Database, plan *physical.Plan, opts *Options) (*storage.Relation, *physical.IDRows, error) {
	return plan.RunCapture(opts.orDefault().physCtx(db))
}

// ExportGroups is RunPlan for a plan rooted at a group operator: it
// returns every parameter group's partial state (physical.Plan.ExportGroups).
func ExportGroups(db *storage.Database, plan *physical.Plan, additive bool, opts *Options) (*physical.GroupStates, error) {
	return plan.ExportGroups(opts.orDefault().physCtx(db), additive)
}

func (o Options) physCtx(db *storage.Database) *physical.Ctx {
	return &physical.Ctx{DB: db, Col: o.Trace.Collector(), Gate: o.gate()}
}

// evalRuleMaterialized is the relation-at-a-time reference path
// (ExecMaterialize): every join step materializes its binding relation
// via the step executor.
func evalRuleMaterialized(db *storage.Database, r *datalog.Rule, out []datalog.Term, o *Options) (*storage.Relation, error) {
	ex, err := newExecutor(db, r, o.gate())
	if err != nil {
		return nil, err
	}
	order, err := JoinOrder(db, r)
	if err != nil {
		return nil, err
	}
	for _, i := range order {
		if ex.joined[i] { // absorbed into an earlier scan as a semi-join
			continue
		}
		if err := ex.joinNext(i); err != nil {
			return nil, err
		}
	}
	res, err := ex.finish(out)
	if err != nil {
		return nil, err
	}
	// The projected result is this evaluation's answer — the same place
	// the streaming executor's sink applies the row budget.
	if err := o.gate().CheckOutput(res.Len()); err != nil {
		return nil, err
	}
	return res, nil
}

// EvalUnion evaluates a union of rules and unions the projected results.
// outFor returns the output terms for each rule; the projections must have
// equal arity. Set semantics: duplicates across rules collapse.
func EvalUnion(db *storage.Database, u datalog.Union, outFor func(*datalog.Rule) []datalog.Term, opts *Options) (*storage.Relation, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	// Resolve the gate once so every branch shares one wall clock and
	// budget.
	o := opts.orDefault().withGate()
	var result *storage.Relation
	for _, r := range u {
		part, err := EvalRule(db, r, outFor(r), &o)
		if err != nil {
			return nil, err
		}
		if result == nil {
			result = part
			continue
		}
		if result.Arity() != part.Arity() {
			return nil, fmt.Errorf("eval: union branches project %d vs %d columns", result.Arity(), part.Arity())
		}
		result.InsertAll(part)
	}
	if err := o.gate().CheckOutput(result.Len()); err != nil {
		return nil, err
	}
	return result, nil
}

// EvalGround evaluates a fully instantiated rule (no parameters) and
// reports the tuples of its head predicate — the per-assignment "result of
// the query" of the flock semantics (§2).
func EvalGround(db *storage.Database, r *datalog.Rule, opts *Options) (*storage.Relation, error) {
	if ps := r.Params(); len(ps) > 0 {
		return nil, fmt.Errorf("eval: rule still has parameters %v", ps)
	}
	return EvalRule(db, r, nil, opts)
}
