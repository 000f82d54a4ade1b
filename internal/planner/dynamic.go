package planner

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// This file implements the dynamic strategy of §4.4: choose a join order
// in advance, then decide whether to apply a FILTER step only after seeing
// each intermediate relation. "If the size of an intermediate relation is
// such that the average number of tuples per assignment of values to the
// parameters is significantly lower than it was at any previous step that
// computed a relation with the same set of parameters, then there is a
// good chance that many value-assignments will be eliminated on this
// step"; for a parameter set not previously encountered, the average is
// compared against the support threshold itself.
//
// A FILTER applied at an intermediate node is sound because the subgoals
// joined so far form a safe subquery of the full rule (the head variables
// must already be bound, which the implementation checks), so its
// per-assignment result upper-bounds the full query's (§3.1).

// DynamicOptions configures the dynamic evaluator.
type DynamicOptions struct {
	// FilterRatio triggers a filter at a fresh parameter set when the
	// average group size is below FilterRatio × threshold. Default 1.0
	// (the paper's "somewhat below 20").
	FilterRatio float64
	// RefilterRatio triggers a repeat filter on an already-seen parameter
	// set when the average group size has dropped below RefilterRatio ×
	// its previous best. Default 0.5 ("significantly lower").
	RefilterRatio float64
	// FixedOrder, when non-nil, pins the join order (positive-atom
	// indices), overriding eval.JoinOrder's greedy choice. Example 4.4
	// fixes the Fig. 8 tree this way. Only meaningful for single-rule
	// flocks.
	FixedOrder []int
	// Trace, when non-nil, records engine steps.
	Trace *eval.Trace
	// Workers is not read: the dynamic strategy runs sequentially at
	// every worker count, because its barriers decide on the whole
	// intermediate rather than on one part of it. Callers that share one
	// worker setting across strategies may still set it.
	Workers int
	// Ctx, when non-nil, cancels the evaluation cooperatively; the
	// operators observe it at batch boundaries, barriers included, and
	// abort with eval.ErrCanceled.
	Ctx context.Context
	// Limits bounds the evaluation (see eval.Limits); zero is unlimited,
	// and unhit limits never change answers or decisions.
	Limits eval.Limits
	// Gate, when non-nil, is a pre-resolved checkpoint shared by a larger
	// evaluation; when nil, one is derived from Ctx and Limits per
	// EvalDynamic call.
	Gate *eval.Gate
}

func (o *DynamicOptions) orDefault() DynamicOptions {
	var out DynamicOptions
	if o != nil {
		out = *o
	}
	if out.FilterRatio <= 0 {
		out.FilterRatio = 1.0
	}
	if out.RefilterRatio <= 0 {
		out.RefilterRatio = 0.5
	}
	return out
}

// Decision records one filter/don't-filter choice made during dynamic
// evaluation (the paper's Example 4.4 narrative, machine-readable).
type Decision struct {
	// After names the join step the decision follows.
	After string
	// Params is the parameter set bound at this node.
	Params []datalog.Param
	// AvgGroup is the observed tuples-per-assignment ratio.
	AvgGroup float64
	// Filtered reports whether a FILTER step was applied.
	Filtered bool
	// RowsBefore and RowsAfter give the intermediate sizes around the
	// filter (equal when not filtered).
	RowsBefore, RowsAfter int
}

// String renders the decision.
func (d Decision) String() string {
	verdict := "skip"
	if d.Filtered {
		verdict = fmt.Sprintf("FILTER %d -> %d rows", d.RowsBefore, d.RowsAfter)
	}
	return fmt.Sprintf("after %s: params %v avg %.2f: %s", d.After, d.Params, d.AvgGroup, verdict)
}

// DynamicResult is the outcome of a dynamic evaluation.
type DynamicResult struct {
	Answer    *storage.Relation
	Decisions []Decision
}

// FilterCount returns how many FILTER reductions were applied.
func (r *DynamicResult) FilterCount() int {
	n := 0
	for _, d := range r.Decisions {
		if d.Filtered {
			n++
		}
	}
	return n
}

// String summarizes the run.
func (r *DynamicResult) String() string {
	var b strings.Builder
	for _, d := range r.Decisions {
		fmt.Fprintf(&b, "%s\n", d)
	}
	fmt.Fprintf(&b, "answer: %d rows", r.Answer.Len())
	return b.String()
}

// EvalDynamic evaluates the flock with dynamic filter selection. The
// flock's filter must be monotone (intermediate filtering is unsound
// otherwise). Multi-rule (union) flocks are evaluated rule-by-rule without
// intermediate filtering — per-rule pruning would be unsound because the
// union's support sums contributions across rules (§3.4) — and then
// filtered at the end.
func EvalDynamic(db *storage.Database, f *core.Flock, opts *DynamicOptions) (*DynamicResult, error) {
	o := opts.orDefault()
	if !f.Filter.Monotone() {
		return nil, fmt.Errorf("planner: dynamic filtering requires a monotone filter; %s is not", f.Filter)
	}
	if f.Filter.PassesEmpty() {
		return nil, fmt.Errorf("planner: filter %s accepts the empty result", f.Filter)
	}
	if err := f.CheckDatabase(db); err != nil {
		return nil, err
	}
	if o.Gate == nil {
		// Resolve once: views, every rule, and the final group-by share
		// one wall clock and budget.
		o.Gate = eval.NewGate(o.Ctx, o.Limits)
	}
	db, err := f.MaterializeViews(db, &core.EvalOptions{Trace: o.Trace, Gate: o.Gate})
	if err != nil {
		return nil, err
	}

	res := &DynamicResult{}
	plan, err := compileDynamic(db, f, &o, res)
	if err != nil {
		return nil, err
	}
	ans, err := eval.RunPlan(db, plan, &eval.Options{Trace: o.Trace, Gate: o.Gate})
	if err != nil {
		return nil, err
	}
	res.Answer = ans
	return res, nil
}

// CompileDynamic returns the physical plan EvalDynamic would execute —
// the EXPLAIN rendering path. Decision barriers appear as materialize
// nodes at every legal filter point; whether each one filters is decided
// at run time by the policy. Views must already be materialized into db;
// the plan is single-use (its barriers share decision state).
func CompileDynamic(db *storage.Database, f *core.Flock, opts *DynamicOptions) (*physical.Plan, error) {
	o := opts.orDefault()
	if !f.Filter.Monotone() {
		return nil, fmt.Errorf("planner: dynamic filtering requires a monotone filter; %s is not", f.Filter)
	}
	if f.Filter.PassesEmpty() {
		return nil, fmt.Errorf("planner: filter %s accepts the empty result", f.Filter)
	}
	return compileDynamic(db, f, &o, &DynamicResult{})
}

// compileDynamic compiles the flock to one physical plan whose §4.4
// "filter now?" decisions are put by barrier operators: the compiler
// places a barrier at every pipeline position where a FILTER step is
// legal (some parameters bound, all head columns bound). The barrier —
// physical.Barrier, the mechanism — buffers the actual intermediate
// relation in ID space, reports its cardinalities to the policy below
// and, when told to filter, reduces it to the assignments that pass the
// flock's condition. Decisions append to res in pipeline order.
// Multi-rule flocks compile without barriers (per-rule pruning is
// unsound; see EvalDynamic).
func compileDynamic(db *storage.Database, f *core.Flock, o *DynamicOptions, res *DynamicResult) (*physical.Plan, error) {
	paramCols := paramColsOf(f)
	branches := make([]physical.Node, len(f.Query))
	for bi, r := range f.Query {
		order, headCols, err := orderAndHead(db, r, o)
		if err != nil {
			return nil, err
		}
		var barrier physical.BarrierFactory
		if len(f.Query) == 1 {
			pol := newPolicy(f, o, res)
			barrier = func(_ int, atom string, cols []string) *physical.Barrier {
				boundParams, paramPos := boundParamsOfCols(cols, paramCols)
				if len(boundParams) == 0 {
					return nil
				}
				headPos, bound := positionsOf(cols, headCols)
				if !bound {
					// The subquery-so-far is unsafe as a FILTER query (its
					// head would be unbound); no legal filter step here.
					return nil
				}
				site := pol.at(atom, boundParams)
				return &physical.Barrier{
					Desc:     fmt.Sprintf("decide on %v", boundParams),
					ParamPos: paramPos,
					HeadPos:  headPos,
					Agg:      f.Filter.Aggregate(),
					Decide:   site.decide,
					Record:   site.record,
				}
			}
		}
		node, err := physical.CompileRule(db, r, physical.RuleOpts{
			Order:   order,
			Out:     extendedTerms(f.Params, r),
			Barrier: barrier,
		})
		if err != nil {
			return nil, err
		}
		branches[bi] = node
	}
	in := branches[0]
	if len(branches) > 1 {
		un, err := physical.NewUnion(branches)
		if err != nil {
			return nil, err
		}
		in = un
	}
	group, err := physical.NewGroup("flock", len(f.Params), f.Filter.Aggregate(), f.Filter.String(), in)
	if err != nil {
		return nil, err
	}
	return physical.NewPlan(physical.NewMaterialize("flock", group, nil)), nil
}

// policy is the §4.4 decision rule of one rule's evaluation — when an
// intermediate relation is worth a FILTER step — together with the state
// the rule reads (the best average seen per parameter set) and the log it
// writes. The barrier operator is the mechanism that counts and reduces.
type policy struct {
	o         *DynamicOptions
	res       *DynamicResult
	threshold int
	bestAvg   map[string]float64 // param-set key -> best avg seen
}

func newPolicy(f *core.Flock, o *DynamicOptions, res *DynamicResult) *policy {
	return &policy{o: o, res: res, threshold: thresholdOf(f), bestAvg: make(map[string]float64)}
}

// decisionSite is the policy at one decision point: after one joined
// atom, with one set of parameters bound.
type decisionSite struct {
	*policy
	atom   string
	params []datalog.Param
	key    string
}

func (p *policy) at(atom string, boundParams []datalog.Param) *decisionSite {
	return &decisionSite{policy: p, atom: atom, params: boundParams, key: paramSetKey(boundParams)}
}

// avgGroup is the §4.4 measure: tuples per parameter assignment.
func avgGroup(rows, assigns int) float64 {
	if assigns == 0 {
		return 0
	}
	return float64(rows) / float64(assigns)
}

// decide applies the §4.4 rules to an intermediate relation of rows
// tuples over assigns parameter assignments.
func (s *decisionSite) decide(rows, assigns int) bool {
	avg := avgGroup(rows, assigns)
	prev, seen := s.bestAvg[s.key]
	switch {
	case rows == 0:
		return false // nothing to prune
	case !seen:
		// Fresh parameter set: compare against the threshold (§4.4's
		// "important special case").
		return avg < s.o.FilterRatio*float64(s.threshold)
	default:
		return avg < s.o.RefilterRatio*prev
	}
}

// record logs one decision and updates the parameter set's baseline. The
// pipeline continues from the reduced relation, so the §4.4 "as it was at
// any previous step" baseline is the post-filter average. Remembering the
// pre-filter average would compare later steps against a state that no
// longer exists and refilter too eagerly.
func (s *decisionSite) record(out physical.BarrierOutcome) {
	avg := avgGroup(out.RowsAfter, out.AssignsAfter)
	if prev, seen := s.bestAvg[s.key]; !seen || avg < prev {
		s.bestAvg[s.key] = avg
	}
	if s.o.Trace != nil {
		s.o.Trace.Collector().Record(obs.Event{
			Op:       obs.OpDecision,
			ID:       out.ID,
			Desc:     fmt.Sprintf("after %s on %v", s.atom, s.params),
			RowsIn:   out.Rows,
			RowsOut:  out.RowsAfter,
			Groups:   out.Assigns,
			Filtered: out.Filtered,
			Wall:     out.Wall,
		})
	}
	s.res.Decisions = append(s.res.Decisions, Decision{
		After:      s.atom,
		Params:     s.params,
		AvgGroup:   avgGroup(out.Rows, out.Assigns),
		Filtered:   out.Filtered,
		RowsBefore: out.Rows,
		RowsAfter:  out.RowsAfter,
	})
}

// orderAndHead resolves the rule's join order under the options and its
// head as binding-relation column names.
func orderAndHead(db *storage.Database, r *datalog.Rule, o *DynamicOptions) (order []int, headCols []string, err error) {
	order = o.FixedOrder
	if order == nil {
		if order, err = eval.JoinOrder(db, r); err != nil {
			return nil, nil, err
		}
	} else if len(order) != len(r.PositiveAtoms()) {
		return nil, nil, fmt.Errorf("planner: fixed order covers %d of %d atoms", len(order), len(r.PositiveAtoms()))
	}
	headCols = make([]string, 0, len(r.Head.Args))
	for _, t := range r.Head.Args {
		col, ok := termCol(t)
		if !ok {
			return nil, nil, fmt.Errorf("planner: constant head argument %s", t)
		}
		headCols = append(headCols, col)
	}
	return order, headCols, nil
}

// paramColsOf maps binding-relation column names to the flock's
// parameters.
func paramColsOf(f *core.Flock) map[string]datalog.Param {
	paramCols := make(map[string]datalog.Param, len(f.Params))
	for _, p := range f.Params {
		paramCols["$"+string(p)] = p
	}
	return paramCols
}

// extendedTerms builds the (params..., head args...) projection list.
func extendedTerms(params []datalog.Param, r *datalog.Rule) []datalog.Term {
	out := make([]datalog.Term, 0, len(params)+len(r.Head.Args))
	for _, p := range params {
		out = append(out, p)
	}
	return append(out, r.Head.Args...)
}

// boundParamsOfCols returns the flock parameters bound among cols
// (sorted) and their column positions (in the same order).
func boundParamsOfCols(cols []string, paramCols map[string]datalog.Param) ([]datalog.Param, []int) {
	type bp struct {
		p   datalog.Param
		pos int
	}
	var found []bp
	for i, c := range cols {
		if p, ok := paramCols[c]; ok {
			found = append(found, bp{p, i})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].p < found[j].p })
	params := make([]datalog.Param, len(found))
	pos := make([]int, len(found))
	for i, f := range found {
		params[i] = f.p
		pos[i] = f.pos
	}
	return params, pos
}

// positionsOf returns where each want column sits in cols; ok is false
// when one is missing.
func positionsOf(cols, want []string) (pos []int, ok bool) {
	pos = make([]int, len(want))
	for i, w := range want {
		pos[i] = -1
		for j, c := range cols {
			if c == w {
				pos[i] = j
				break
			}
		}
		if pos[i] < 0 {
			return nil, false
		}
	}
	return pos, true
}
