package planner

import (
	"fmt"
	"sort"
	"strings"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
)

// This file implements §4.3's first restricted search: "select some sets of
// parameters; for each selected set S, select a subset of the subgoals of
// the original query that is safe and includes exactly the parameters of
// S; use this subquery to define a relation R_S that restricts the
// parameters S; finally, at the last step, use the original query together
// with all the subgoals formed from the relations R_S."

// maxSetSize bounds the parameter-set sizes the static and exhaustive
// planners consider: singletons and pairs, matching the paper's examples.
const maxSetSize = 2

// StaticOptions configures the static planner.
type StaticOptions struct {
	// SurvivorCutoff: include a filter step only if its estimated fraction
	// of surviving parameter assignments is below this value. Default 0.5.
	SurvivorCutoff float64
	// Sampling, when non-nil, estimates survivor fractions by evaluating
	// each candidate subquery on a sampled database (§4.4's "substantial
	// gathering of statistics") instead of the closed-form model —
	// slower, far more accurate on join subqueries.
	Sampling *SampleOptions
}

func (o *StaticOptions) orDefault() StaticOptions {
	out := StaticOptions{SurvivorCutoff: 0.5}
	if o == nil {
		return out
	}
	if o.SurvivorCutoff > 0 {
		out.SurvivorCutoff = o.SurvivorCutoff
	}
	out.Sampling = o.Sampling
	return out
}

// PlanWithParamSets builds the §4.3-heuristic-1 plan with one FILTER step
// per given parameter set, in order. Each step uses the minimal safe
// subquery per rule for its set (§3.4) and references every prior step
// whose parameters are a subset of its own; the final step references all
// steps. Passing no sets yields the trivial single-step plan.
func PlanWithParamSets(f *core.Flock, sets [][]datalog.Param) (*core.Plan, error) {
	var steps []core.FilterStep
	for _, set := range sets {
		sub, err := core.UnionSubquery(f.Query, set)
		if err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		var refs []core.FilterStep
		for _, prev := range steps {
			if isParamSubset(prev.Params, set) {
				refs = append(refs, prev)
			}
		}
		steps = append(steps, core.FilterStep{
			Name:   stepName(set),
			Params: sortedParams(set),
			Query:  core.WithStepRefs(sub, refs...),
		})
	}
	steps = append(steps, core.FinalStep(f, "ok", steps...))
	return core.NewPlan(f, steps)
}

// PlanSharedFilter builds the symmetric a-priori plan of §3.1 / footnote 3:
// one FILTER step computes the survivor set for the canonical parameter,
// and the final step references that single relation once per flock
// parameter (renamed). This halves the pre-filtering work for symmetric
// flocks like the market-basket pair query; plan validation rejects the
// construction when the flock is not actually symmetric in the renamed
// parameters.
func PlanSharedFilter(f *core.Flock, canonical datalog.Param) (*core.Plan, error) {
	sub, err := core.UnionSubquery(f.Query, []datalog.Param{canonical})
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	step := core.FilterStep{
		Name:   stepName([]datalog.Param{canonical}),
		Params: []datalog.Param{canonical},
		Query:  sub,
	}
	refs := make([]core.StepRef, 0, len(f.Params))
	for _, p := range f.Params {
		refs = append(refs, core.StepRef{Step: step, Args: []datalog.Param{p}})
	}
	final := core.FinalStepRefs(f, "ok", refs...)
	return core.NewPlan(f, []core.FilterStep{step, final})
}

// PlanStatic chooses filter steps by cost estimation and builds the plan.
// Candidate sets are the parameter sets admitting safe subqueries, up to
// maxSetSize, considered smallest-first (so pair steps can reuse singleton
// steps, as in the a-priori construction). A set is selected when its
// estimated survivor fraction is below SurvivorCutoff.
func PlanStatic(f *core.Flock, est *Estimator, opts *StaticOptions) (*core.Plan, error) {
	o := opts.orDefault()
	threshold := thresholdOf(f)
	var chosen [][]datalog.Param
	for _, set := range candidateSets(f, maxSetSize) {
		b, err := est.EstimateFilter(f, set, threshold)
		if err != nil {
			continue // no safe subquery for this set in some rule
		}
		frac := b.SurvivorFrac
		if o.Sampling != nil {
			if sampled, err := est.SampledSurvivorFraction(b.Subquery, set, threshold, o.Sampling); err == nil {
				frac = sampled
			}
		}
		if frac < o.SurvivorCutoff {
			chosen = append(chosen, set)
		}
	}
	return PlanWithParamSets(f, chosen)
}

// candidateSets returns parameter sets (size <= maxSize, excluding the
// full set when it equals the whole flock only if... the full set is a
// legitimate candidate — Example 3.2's subquery (4) filters ($s,$m)
// pairs), ordered smallest-first for a-priori-style reuse.
func candidateSets(f *core.Flock, maxSize int) [][]datalog.Param {
	// Intersect the per-rule availability: a set is a candidate only if
	// every rule has a safe subquery with exactly that set.
	counts := make(map[string][]datalog.Param)
	occur := make(map[string]int)
	for _, r := range f.Query {
		for _, set := range core.ParamSets(r) {
			if len(set) > maxSize {
				continue
			}
			k := paramSetKey(set)
			counts[k] = set
			occur[k]++
		}
	}
	var out [][]datalog.Param
	for k, set := range counts {
		if occur[k] == len(f.Query) {
			out = append(out, set)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return paramSetKey(out[i]) < paramSetKey(out[j])
	})
	return out
}

func sortedParams(set []datalog.Param) []datalog.Param {
	out := append([]datalog.Param(nil), set...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func isParamSubset(sub, super []datalog.Param) bool {
	m := make(map[datalog.Param]bool, len(super))
	for _, p := range super {
		m[p] = true
	}
	for _, p := range sub {
		if !m[p] {
			return false
		}
	}
	return true
}

func paramSetKey(set []datalog.Param) string {
	parts := make([]string, len(set))
	for i, p := range sortedParams(set) {
		parts[i] = string(p)
	}
	return strings.Join(parts, "\x00")
}

// stepName derives a deterministic relation name for a parameter set,
// e.g. ok_s, ok_m, ok_m_s.
func stepName(set []datalog.Param) string {
	parts := make([]string, len(set))
	for i, p := range sortedParams(set) {
		parts[i] = string(p)
	}
	return "ok_" + strings.Join(parts, "_")
}
