package planner

import (
	"fmt"
	"math"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
)

// This file implements the full exponential search §4.3 grounds in the
// System-R tradition ("there is ample precedent for making exponential
// searches to find the best query plan... because queries tend to be
// small, exponential searches are often computationally feasible"): every
// subset of the candidate parameter sets is turned into a plan, each plan
// is costed under the independence model, and the cheapest wins.

// virtualRel carries the estimated shape of a not-yet-materialized step
// relation, so later steps' costs can account for the semi-join reduction.
type virtualRel struct {
	rows     float64
	distinct map[string]float64 // column term -> distinct estimate
}

// EstimatePlanCost predicts the total work of executing the plan: for
// each step, the sum of estimated intermediate-result sizes along a
// greedy join order of its query (so scans of large base relations are
// paid for, not just final outputs), with references to earlier steps
// modeled as virtual relations sized by their estimated survivor counts.
func (e *Estimator) EstimatePlanCost(p *core.Plan) float64 {
	threshold := thresholdOf(p.Flock)
	virt := make(map[string]virtualRel)
	total := 0.0
	for _, step := range p.Steps {
		stepRows := 0.0
		for _, r := range step.Query {
			stepRows += e.ruleWorkWith(r, virt)
		}
		total += stepRows

		// Estimate the step's survivor relation. The survivor fraction of
		// the step's stripped subquery scales the parameter-combination
		// count.
		combos := 1.0
		distinct := make(map[string]float64, len(step.Params))
		for _, prm := range step.Params {
			d := e.paramDistinct(p.Flock, prm)
			frac := e.paramSurvivorFrac(p.Flock, prm, threshold)
			surv := d * frac
			if surv < 1 {
				surv = 1
			}
			distinct["$"+string(prm)] = surv
			combos *= surv
		}
		virt[step.Name] = virtualRel{rows: combos, distinct: distinct}
	}
	return total
}

// paramDistinct estimates the number of candidate values of one parameter.
func (e *Estimator) paramDistinct(f *core.Flock, prm datalog.Param) float64 {
	best := math.Inf(1)
	for _, r := range f.Query {
		d := e.ParamCombos(r, []datalog.Param{prm})
		if d < best {
			best = d
		}
	}
	if math.IsInf(best, 1) || best < 1 {
		return 1
	}
	return best
}

// paramSurvivorFrac estimates the fraction of a parameter's values that
// survive its minimal single-parameter subquery at the threshold; 1.0 when
// no such subquery exists.
func (e *Estimator) paramSurvivorFrac(f *core.Flock, prm datalog.Param, threshold int) float64 {
	sub, err := core.UnionSubquery(f.Query, []datalog.Param{prm})
	if err != nil {
		return 1
	}
	frac := e.SurvivorFraction(sub, []datalog.Param{prm}, threshold)
	if frac <= 0 {
		return 1.0 / math.Max(1, e.paramDistinct(f, prm)) // at least one survivor
	}
	return frac
}

// ruleWorkWith estimates the total work of evaluating r's body: the sum
// of intermediate sizes joining the positive atoms smallest-relation-
// first, under the independence model, with virtual step relations
// resolved from virt.
func (e *Estimator) ruleWorkWith(r *datalog.Rule, virt map[string]virtualRel) float64 {
	const (
		negSelectivity = 0.8
		cmpSelectivity = 0.5
	)
	// Mirror the engine's greedy order: start with the smallest relation,
	// then repeatedly take the smallest atom connected to the bound
	// columns, falling back to the smallest disconnected one.
	all := r.PositiveAtoms()
	size := func(a *datalog.Atom) float64 {
		if v, isVirtual := virt[a.Pred]; isVirtual {
			return v.rows
		}
		if rel, err := e.db.Source(a.Pred); err == nil {
			return float64(rel.Len())
		}
		return 0
	}
	cols := func(a *datalog.Atom) []string {
		var out []string
		for _, t := range a.Args {
			if c, ok := termCol(t); ok {
				out = append(out, c)
			}
		}
		return out
	}
	used := make([]bool, len(all))
	bound := make(map[string]bool)
	atoms := make([]*datalog.Atom, 0, len(all))
	for len(atoms) < len(all) {
		best, bestConn := -1, false
		for i, a := range all {
			if used[i] {
				continue
			}
			conn := len(atoms) == 0
			if !conn {
				for _, c := range cols(a) {
					if bound[c] {
						conn = true
						break
					}
				}
			}
			switch {
			case best < 0,
				conn && !bestConn,
				conn == bestConn && size(a) < size(all[best]):
				best, bestConn = i, conn
			}
		}
		used[best] = true
		atoms = append(atoms, all[best])
		for _, c := range cols(all[best]) {
			bound[c] = true
		}
	}

	rows := 1.0
	work := 0.0
	distinct := make(map[string]float64)
	for _, a := range atoms {
		var relRows float64
		colDistinct := func(i int) float64 { return 1 }
		if v, isVirtual := virt[a.Pred]; isVirtual {
			relRows = v.rows
			colDistinct = func(i int) float64 {
				col, ok := termCol(a.Args[i])
				if !ok {
					return 1
				}
				if d, have := v.distinct[col]; have {
					return d
				}
				return v.rows
			}
		} else {
			rel, err := e.db.Source(a.Pred)
			if err != nil {
				continue
			}
			relRows = float64(rel.Len())
			colDistinct = func(i int) float64 {
				return float64(e.stats.Distinct(a.Pred, rel.Columns()[i]))
			}
		}
		rows *= relRows
		for i, t := range a.Args {
			col, ok := termCol(t)
			if !ok {
				d := colDistinct(i)
				if d > 1 {
					rows /= d
				}
				continue
			}
			d := colDistinct(i)
			if d < 1 {
				d = 1
			}
			if prev, bound := distinct[col]; bound {
				rows /= math.Max(prev, d)
				distinct[col] = math.Min(prev, d)
			} else {
				distinct[col] = d
			}
		}
		if rows < 1 {
			rows = 1
		}
		work += rows
	}
	for range r.NegatedAtoms() {
		rows *= negSelectivity
	}
	for range r.Comparisons() {
		rows *= cmpSelectivity
	}
	return work + rows
}

// maxCandidates caps the candidate parameter sets the exhaustive search
// considers; the search is 2^candidates plans.
const maxCandidates = 12

// PlanExhaustive searches every subset of the candidate parameter sets
// (up to maxSetSize parameters, at most maxCandidates of them),
// costs each induced plan with EstimatePlanCost, and returns the cheapest.
// The trivial plan (no pre-filters) participates, so the result is never
// worse than no filtering under the model.
func PlanExhaustive(f *core.Flock, est *Estimator) (*core.Plan, error) {
	candidates := candidateSets(f, maxSetSize)
	if len(candidates) > maxCandidates {
		candidates = candidates[:maxCandidates]
	}
	var best *core.Plan
	bestCost := math.Inf(1)
	for mask := 0; mask < 1<<len(candidates); mask++ {
		var sets [][]datalog.Param
		for i, set := range candidates {
			if mask&(1<<i) != 0 {
				sets = append(sets, set)
			}
		}
		plan, err := PlanWithParamSets(f, sets)
		if err != nil {
			continue // some combination may be invalid; skip it
		}
		cost := est.EstimatePlanCost(plan)
		if cost < bestCost {
			best, bestCost = plan, cost
		}
	}
	if best == nil {
		return nil, fmt.Errorf("planner: exhaustive search found no valid plan")
	}
	return best, nil
}
