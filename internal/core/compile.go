package core

import (
	"fmt"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// This file compiles FILTER computations (§4.1) to physical plans: one
// pipeline per query rule projecting the extended answer (params...,
// head...), concatenated by a union operator, grouped and filtered by
// the parameter prefix, materialized under the computation's name. The
// direct strategy compiles the whole flock this way; the plan executor
// compiles one such plan per FILTER step.

// compileFiltered builds the physical plan of one FILTER computation.
// register, when non-nil, is attached to the Materialize sink (step
// plans use it to publish the step relation under its name).
func compileFiltered(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter Filter, name string, opts *EvalOptions, register func(*storage.Relation) error) (*physical.Plan, error) {

	group, err := compileFilteredNode(db, params, query, filter, name, opts)
	if err != nil {
		return nil, err
	}
	return physical.NewPlan(physical.NewMaterialize(name, group, register)), nil
}

// compileFilteredNode builds the FILTER computation's pipeline up to and
// including the group operator, without the Materialize sink.
func compileFilteredNode(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter Filter, name string, opts *EvalOptions) (physical.Node, error) {

	if filter.PassesEmpty() {
		return nil, fmt.Errorf("core: filter %s accepts the empty result; the flock's answer would be infinite", filter)
	}
	in, err := compileExtended(db, params, query, opts)
	if err != nil {
		return nil, err
	}
	return physical.NewGroup(name, len(params), filter.Aggregate(), filter.String(), in)
}

// compileExtended builds the pipelines producing a FILTER computation's
// extended answer (params..., head...): one per query rule, concatenated
// by a union operator. The rows are not deduplicated; the group operator
// does that.
func compileExtended(db *storage.Database, params []datalog.Param, query datalog.Union,
	opts *EvalOptions) (physical.Node, error) {

	if err := query.Validate(); err != nil {
		return nil, err
	}
	eo := opts.evalOpts()
	branches := make([]physical.Node, len(query))
	for i, r := range query {
		order, err := eval.ResolveOrder(db, r, eo)
		if err != nil {
			return nil, err
		}
		node, err := physical.CompileRule(db, r, physical.RuleOpts{
			Order: order,
			Out:   extendedOut(params, r),
		})
		if err != nil {
			return nil, err
		}
		branches[i] = node
	}
	if len(branches) == 1 {
		return branches[0], nil
	}
	un, err := physical.NewUnion(branches)
	if err != nil {
		return nil, err
	}
	return un, nil
}

// CompileDirect returns the physical plan the direct strategy executes
// for f — the EXPLAIN rendering path. Views must already be materialized
// into db (see MaterializeViews); the plan is not run.
func CompileDirect(db *storage.Database, f *Flock, opts *EvalOptions) (*physical.Plan, error) {
	return compileFiltered(db, f.Params, f.Query, f.Filter, "flock", opts, nil)
}

// CompiledStep pairs one FILTER step with its compiled physical plan.
type CompiledStep struct {
	Name string
	Plan *physical.Plan
}

// CompileSteps compiles each FILTER step of the plan against a scratch
// copy of db, registering an empty stand-in relation per step so later
// steps referencing it resolve — the EXPLAIN rendering path for static
// plans (execution compiles each step against the real step results,
// whose sizes drive the join order). Views must already be materialized
// into db.
func (p *Plan) CompileSteps(db *storage.Database, opts *EvalOptions) ([]CompiledStep, error) {
	scratch := db.Clone()
	out := make([]CompiledStep, 0, len(p.Steps))
	for _, step := range p.Steps {
		pl, err := compileFiltered(scratch, step.Params, step.Query, p.Flock.Filter, step.Name, opts, nil)
		if err != nil {
			return nil, fmt.Errorf("core: compiling step %q: %w", step.Name, err)
		}
		out = append(out, CompiledStep{Name: step.Name, Plan: pl})
		cols := make([]string, len(step.Params))
		for i, prm := range step.Params {
			cols[i] = "$" + string(prm)
		}
		scratch.Add(storage.NewRelation(step.Name, cols...))
	}
	return out, nil
}
