package core

import (
	"fmt"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// This file is the fused plan executor: instead of materializing every
// FILTER step's relation and letting later steps re-read it, a step
// whose relation is consumed by exactly one later atom streams its
// passing parameter tuples straight into that consumer — as the
// consumer's pipeline source when the join order puts the streamed atom
// first, or through a symmetric hash join otherwise. Steps consumed
// more than once (or through a negation, or with constants/repeated
// variables at the consuming atom) still materialize normally, so
// fusion never changes the answer.

// ExecuteFused runs the plan's FILTER steps with producer-to-consumer
// fusion and returns the flock's answer (normalized to the canonical
// parameter order). The answer is Relation.Equal to Execute's for every
// worker count and execution mode.
func (p *Plan) ExecuteFused(db *storage.Database, opts *EvalOptions) (*storage.Relation, error) {
	if err := p.Flock.CheckDatabase(db); err != nil {
		return nil, err
	}
	opts = opts.withGate() // all steps share one wall clock and budget
	mat, err := p.Flock.MaterializeViews(db, opts)
	if err != nil {
		return nil, err
	}
	scratch := mat.Clone()
	fusable := p.fusableSteps()
	producers := make(map[string]physical.Node)
	var answer *storage.Relation
	for si, step := range p.Steps {
		stepOpts := opts
		if si < len(p.Steps)-1 {
			stepOpts = opts.subquery()
		}
		node, err := compileFilteredNode(scratch, step.Params, step.Query, p.Flock.Filter, step.Name, stepOpts, producers)
		if err != nil {
			return nil, fmt.Errorf("core: compiling fused step %q: %w", step.Name, err)
		}
		if si < len(p.Steps)-1 && fusable[step.Name] {
			// Defer: the consuming step pulls this pipeline directly. An
			// empty stand-in keeps later join ordering and arity checks
			// resolvable without materializing anything.
			producers[step.Name] = node
			cols := make([]string, len(step.Params))
			for i, prm := range step.Params {
				cols[i] = "$" + string(prm)
			}
			scratch.Add(storage.NewRelation(step.Name, cols...))
			continue
		}
		register := func(rel *storage.Relation) error {
			scratch.Add(rel)
			return nil
		}
		plan := physical.NewPlan(physical.NewMaterialize(step.Name, node, register))
		rel, err := eval.RunPlan(scratch, plan, stepOpts.evalOpts())
		if err != nil {
			return nil, fmt.Errorf("core: executing fused step %q: %w", step.Name, err)
		}
		answer = rel
	}
	return reorderToFlockParams(answer, p.Flock), nil
}

// fusableSteps reports which step relations can stream into their
// consumer: exactly one consuming atom occurrence across all later
// steps, positive (negation anti-joins need a stored relation), with
// distinct variable/parameter arguments.
func (p *Plan) fusableSteps() map[string]bool {
	type usage struct {
		refs       int
		streamable bool
	}
	uses := make(map[string]*usage, len(p.Steps))
	for _, s := range p.Steps {
		uses[s.Name] = &usage{}
	}
	for _, step := range p.Steps {
		for _, r := range step.Query {
			for _, a := range r.PositiveAtoms() {
				if u, isStep := uses[a.Pred]; isStep {
					u.refs++
					u.streamable = streamableAtom(a)
				}
			}
			for _, a := range r.NegatedAtoms() {
				if u, isStep := uses[a.Pred]; isStep {
					u.refs += 2 // anti-join probes a stored set: never fuse
				}
			}
		}
	}
	out := make(map[string]bool, len(uses))
	for name, u := range uses {
		out[name] = u.refs == 1 && u.streamable
	}
	return out
}

// streamableAtom reports whether an atom can consume a stream: every
// argument a variable or parameter, none repeated.
func streamableAtom(a *datalog.Atom) bool {
	seen := make(map[string]bool, len(a.Args))
	for _, t := range a.Args {
		var col string
		switch x := t.(type) {
		case datalog.Var:
			col = string(x)
		case datalog.Param:
			col = "$" + string(x)
		default:
			return false
		}
		if seen[col] {
			return false
		}
		seen[col] = true
	}
	return true
}
