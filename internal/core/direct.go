package core

import (
	"context"
	"fmt"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
)

// This file implements the direct evaluator: materialize the "extended
// answer" — the distinct (parameters..., head...) tuples of the
// parametrized query — then group by the parameter prefix and apply the
// filter to each group. This computes the flock's meaning in one pass and
// is the workhorse that FILTER steps and full plans are built from.

// EvalOptions configures flock evaluation.
type EvalOptions struct {
	// Trace, when non-nil, records the streaming executor's engine steps
	// and group statistics.
	Trace *eval.Trace
	// Workers is the number of in-process parts a FILTER computation runs
	// as, each keeping the groups of its share of the first parameter's
	// values (see evalPartitioned): 0 (the default) means one per CPU, 1
	// (or less) sequential. The memo path and the materializing reference
	// run sequentially at every count. Answers are the same set at every
	// count, in an order fixed by the count.
	Workers int
	// Exec selects the streaming physical-plan executor (default) or the
	// materializing reference (eval.ExecMaterialize). The reference always
	// runs sequentially and records no trace events, whatever Workers and
	// Trace say; answers are identical.
	Exec eval.ExecMode
	// Ctx, when non-nil, cancels the evaluation cooperatively; both
	// executors abort with eval.ErrCanceled at their next checkpoint.
	Ctx context.Context
	// Limits bounds the evaluation's wall clock, live intermediate
	// tuples, and answer rows (see eval.Limits); the zero value is
	// unlimited, and unhit limits never change answers.
	Limits eval.Limits
	// Gate, when non-nil, is a pre-resolved checkpoint shared by a larger
	// evaluation (e.g. every step of a plan); when nil, one is derived
	// from Ctx and Limits per top-level Eval/Execute call.
	Gate *eval.Gate
	// Memo, when non-nil, memoizes FILTER computations across evaluations
	// (see memo.go): extended answers keyed filter-free — so a threshold-
	// tightened re-run reuses the mined candidate tuples — and survivor
	// sets keyed on query plus filter. Callers must also set MemoSalt.
	Memo SubqueryMemo
	// MemoSalt scopes memo keys to a database version and view context;
	// derive it with MemoContext. An empty salt with a non-nil Memo would
	// let results leak across data versions, so flockd always sets both.
	MemoSalt string
	// FilterEval, when non-nil, may take over an entire FILTER computation
	// (§4.1) before the local evaluator runs — the cluster coordinator
	// mounts it to scatter the computation across worker shards and merge
	// their exported group states. Returning handled=false falls
	// back to the local path; a handled computation must return the same
	// relation the local path would (the cluster oracle tests pin this).
	// The hook sees every FILTER computation of the direct strategy and of
	// executed §4.2 plans; the dynamic strategy never consults it.
	FilterEval FilterEvalFn
}

// FilterEvalFn is EvalOptions.FilterEval's signature: one FILTER
// computation, described exactly as the local evaluator receives it —
// the database (views and earlier step relations included), the
// parameter list, the parametrized query, and the resolved filter.
type FilterEvalFn func(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter Filter, name string, opts *EvalOptions) (*storage.Relation, bool, error)

func (o *EvalOptions) evalOpts() *eval.Options {
	if o == nil {
		return nil
	}
	return &eval.Options{Trace: o.Trace, Exec: o.Exec, Ctx: o.Ctx, Limits: o.Limits, Gate: o.Gate}
}

// gate returns the options' checkpoint (nil-safe; may itself be nil).
func (o *EvalOptions) gate() *eval.Gate {
	if o == nil {
		return nil
	}
	return o.Gate
}

// withGate returns options with the checkpoint resolved once, so every
// view, step, and rule of one evaluation shares a single wall clock and
// budget. Nil options stay nil (nothing to bound).
func (o *EvalOptions) withGate() *EvalOptions {
	if o == nil || o.Gate != nil {
		return o
	}
	c := *o
	c.Gate = eval.NewGate(c.Ctx, c.Limits)
	return &c
}

// subquery returns options for evaluating a relation that is not the
// flock's answer — views, extended answers, intermediate plan steps:
// the same shared clock and tuple budget, but no answer-row cap.
func (o *EvalOptions) subquery() *EvalOptions {
	if o == nil {
		return nil
	}
	c := *o
	c.Gate = c.Gate.WithoutOutputCap()
	c.Limits.MaxRows = 0 // in case no gate was resolved yet
	return &c
}

// execMode returns the configured executor mode (streaming by default).
func (o *EvalOptions) execMode() eval.ExecMode {
	if o == nil {
		return eval.ExecStream
	}
	return o.Exec
}

// Eval computes the flock's answer over db using the direct group-by
// strategy. The result has one column per parameter (see ParamColumns) and
// one tuple per accepted assignment. Views, if any, are materialized
// first.
func (f *Flock) Eval(db *storage.Database, opts *EvalOptions) (*storage.Relation, error) {
	opts = opts.withGate() // views and query share one clock and budget
	mat, err := f.MaterializeViews(db, opts)
	if err != nil {
		return nil, err
	}
	return evalFiltered(mat, f.Params, f.Query, f.Filter, "flock", opts, nil)
}

// evalFiltered evaluates one FILTER computation (§4.1): the set of
// param-tuples whose query result passes the filter. It is shared by the
// direct evaluator (whole flock) and the plan executor (each step).
// register, when non-nil, publishes the result before it is returned (plan
// steps add it to the scratch database under its name).
func evalFiltered(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter Filter, name string, opts *EvalOptions, register func(*storage.Relation) error) (*storage.Relation, error) {

	if filter.PassesEmpty() {
		return nil, fmt.Errorf("core: filter %s accepts the empty result; the flock's answer would be infinite", filter)
	}
	if opts != nil && opts.FilterEval != nil {
		rel, handled, err := opts.FilterEval(db, params, query, filter, name, opts)
		if err != nil {
			return nil, err
		}
		if handled {
			return publish(rel, register)
		}
	}
	if opts.execMode() == eval.ExecStream {
		if opts != nil && opts.Memo != nil {
			return evalFilteredMemo(db, params, query, filter, name, opts, register)
		}
		if w := opts.partitions(); w > 1 && len(params) > 0 {
			rel, err := evalPartitioned(db, params, query, filter, name, w, opts)
			if err != nil {
				return nil, err
			}
			return publish(rel, register)
		}
		plan, err := compileFiltered(db, params, query, filter, name, register)
		if err != nil {
			return nil, err
		}
		return eval.RunPlan(db, plan, opts.evalOpts())
	}
	// The materializing executor is the boxed reference the streaming plan
	// is checked against; it never consults the memo. The extended answer
	// is an intermediate (the streaming analogue is a mid-pipeline
	// projection, not the sink): no answer-row cap.
	ext, err := eval.EvalUnion(db, query, func(r *datalog.Rule) []datalog.Term {
		return extendedOut(params, r)
	}, opts.subquery().evalOpts())
	if err != nil {
		return nil, err
	}
	res, groups := groupAndFilter(ext, len(params), filter, name)
	// The group-by holds the extended relation, the group accumulators,
	// and the passing tuples live at once; feed that into the tuple
	// budget, and cap the answer like the streaming sink does.
	opts.gate().NoteLive(ext.Len() + groups + res.Len())
	if err := opts.gate().CheckOutput(res.Len()); err != nil {
		return nil, err
	}
	if err := opts.gate().Check(); err != nil {
		return nil, err
	}
	return publish(res, register)
}

// publish hands rel to register, when there is one, and returns it.
func publish(rel *storage.Relation, register func(*storage.Relation) error) (*storage.Relation, error) {
	if register != nil {
		if err := register(rel); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// groupAndFilter groups an extended-answer relation by its first nParams
// columns, applies the filter to each group's head tuples, and returns the
// passing parameter tuples in the order their groups were first seen,
// together with the number of distinct parameter groups, which the tuple
// budget counts as live. Monotone filters short-circuit per group.
func groupAndFilter(ext *storage.Relation, nParams int, filter Filter, name string) (*storage.Relation, int) {
	paramPos := make([]int, nParams)
	for i := range paramPos {
		paramPos[i] = i
	}
	headPos := make([]int, ext.Arity()-nParams)
	for i := range headPos {
		headPos[i] = nParams + i
	}
	// One filterGroup per distinct parameter prefix, fed the group's head
	// tuples; one key buffer is reused, so only new groups allocate a key
	// string. order keeps the groups first-seen, so the answer's order is
	// the extended answer's, not the map's.
	groups := make(map[string]*filterGroup)
	var order []*filterGroup
	var buf []byte
	for _, t := range ext.Tuples() {
		buf = t.AppendKeyOn(buf[:0], paramPos)
		g, ok := groups[string(buf)]
		if !ok {
			g = &filterGroup{params: t.Project(paramPos), acc: filter.NewGroup()}
			groups[string(buf)] = g
			order = append(order, g)
		}
		if g.done {
			continue
		}
		g.acc.Add(t.Project(headPos))
		if g.acc.Done() {
			g.done = true
		}
	}
	out := storage.NewRelation(name, ext.Columns()[:nParams]...)
	for _, g := range order {
		if g.done || g.acc.Passes() {
			out.Insert(g.params)
		}
	}
	return out, len(groups)
}

// filterGroup is one parameter group's in-flight aggregation state: the
// group's parameter tuple, its accumulator, and whether the monotone
// short-circuit already fired (after which the accumulator is ignored —
// more tuples cannot un-pass a monotone condition).
type filterGroup struct {
	params storage.Tuple
	acc    GroupAcc
	done   bool
}
