package planner

import (
	"fmt"
	"math"
	"math/rand"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// This file implements sampling-based statistics, §4.4's suggestion that
// "we may want to do substantial gathering of statistics to support the
// filter/don't filter decision". The closed-form independence model in
// estimator.go is exact only for single-atom single-parameter subqueries;
// for joins (e.g. Example 3.2's subquery (3), or the pair subquery (4))
// it falls back to a distributional guess. Sampling instead evaluates the
// candidate subquery on a Bernoulli sample of the *grouping* entities and
// scales the threshold, giving a consistent estimate of the survivor
// fraction at a fraction of the cost.

// SampleOptions configures sampling-based estimation.
type SampleOptions struct {
	// Fraction of head-entity values to keep (0 < f <= 1). Default 0.1.
	Fraction float64
	// Seed drives the sample; fixed default for reproducibility.
	Seed int64
}

func (o *SampleOptions) orDefault() SampleOptions {
	out := SampleOptions{Fraction: 0.1, Seed: 1}
	if o == nil {
		return out
	}
	if o.Fraction > 0 && o.Fraction <= 1 {
		out.Fraction = o.Fraction
	}
	out.Seed = o.Seed
	return out
}

// SampledSurvivorFraction estimates the fraction of parameter assignments
// whose subquery result reaches the threshold, by evaluating the subquery
// over a sampled database and comparing each group against the scaled
// threshold.
//
// The sample is taken on the subquery's head-variable values (the counted
// entities, e.g. patients): every base relation containing a head variable
// keeps only tuples whose value hashes into the sample. Sampling entities
// rather than tuples preserves the join structure — a sampled patient
// keeps all of their exhibits and treatments rows — so each group's count
// scales by ~Fraction and the support comparison stays unbiased apart
// from small-count noise.
func (e *Estimator) SampledSurvivorFraction(sub datalog.Union, params []datalog.Param, threshold int, opts *SampleOptions) (float64, error) {
	o := opts.orDefault()
	if err := sub.Validate(); err != nil {
		return 0, err
	}
	// Collect the head variables (per rule; names may differ across rules
	// but positions align).
	sampleDB, err := e.sampleByHeadEntities(sub, o)
	if err != nil {
		return 0, err
	}
	scaled := int(math.Ceil(float64(threshold) * o.Fraction))
	if scaled < 1 {
		scaled = 1
	}
	spec := datalog.FilterSpec{
		Agg: datalog.AggCount, Op: datalog.Ge, Threshold: storage.Int(int64(scaled)),
	}
	flock, err := core.New(sub, spec)
	if err != nil {
		return 0, fmt.Errorf("planner: sampling subquery: %w", err)
	}
	survivors, err := flock.Eval(sampleDB, &core.EvalOptions{Workers: 1})
	if err != nil {
		return 0, err
	}
	// Denominator: candidate assignments in the sample (distinct values of
	// the parameters over their positive positions).
	denom := e.sampledParamCombos(sampleDB, sub, params)
	if denom == 0 {
		return 0, nil
	}
	frac := float64(survivors.Len()) / denom
	if frac > 1 {
		frac = 1
	}
	return frac, nil
}

// sampleByHeadEntities builds a database where relations mentioning a head
// variable keep only tuples whose head-entity value falls in the sample.
func (e *Estimator) sampleByHeadEntities(sub datalog.Union, o SampleOptions) (*storage.Database, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	//lint:ignore DL005 decide Normalize()s the memo key before every access
	keep := make(map[storage.Value]bool)
	decide := func(v storage.Value) bool {
		// Normalize the memo key: Int(1) and Float(1) are one head
		// entity, and sampling them independently would bias the
		// estimate by keeping half of an entity's tuples.
		v = v.Normalize()
		if kept, seen := keep[v]; seen {
			return kept
		}
		kept := rng.Float64() < o.Fraction
		keep[v] = kept
		return kept
	}

	// For each relation, find the argument positions bound to head
	// variables in any rule.
	headPos := make(map[string]map[int]bool)
	for _, r := range sub {
		headVars := make(map[datalog.Term]bool)
		for _, t := range r.Head.Args {
			headVars[t] = true
		}
		for _, a := range r.PositiveAtoms() {
			for i, t := range a.Args {
				if headVars[t] {
					if headPos[a.Pred] == nil {
						headPos[a.Pred] = make(map[int]bool)
					}
					headPos[a.Pred][i] = true
				}
			}
		}
	}

	out := storage.NewDatabase()
	for _, r := range sub {
		for _, a := range r.PositiveAtoms() {
			if out.Has(a.Pred) {
				continue
			}
			rel, err := e.db.Relation(a.Pred)
			if err != nil {
				return nil, fmt.Errorf("planner: %w", err)
			}
			positions := headPos[a.Pred]
			if len(positions) == 0 {
				out.Add(rel)
				continue
			}
			sampled := storage.NewRelation(rel.Name(), rel.Columns()...)
			for _, t := range rel.Tuples() {
				ok := true
				for p := range positions {
					if !decide(t[p]) {
						ok = false
						break
					}
				}
				if ok {
					sampled.Insert(t)
				}
			}
			out.Add(sampled)
		}
		// Negated atoms' relations pass through unsampled (they test
		// membership, not counts).
		for _, a := range r.NegatedAtoms() {
			if !out.Has(a.Pred) {
				rel, err := e.db.Relation(a.Pred)
				if err != nil {
					return nil, fmt.Errorf("planner: %w", err)
				}
				out.Add(rel)
			}
		}
	}
	return out, nil
}

// sampledParamCombos counts candidate parameter assignments in the sampled
// database: the product over parameters of the distinct values at the
// parameter's positive positions (minimum across occurrences).
func (e *Estimator) sampledParamCombos(db *storage.Database, sub datalog.Union, params []datalog.Param) float64 {
	total := 1.0
	for _, prm := range params {
		best := math.Inf(1)
		for _, r := range sub {
			for _, a := range r.PositiveAtoms() {
				rel, err := db.Relation(a.Pred)
				if err != nil {
					continue
				}
				for i, t := range a.Args {
					if q, ok := t.(datalog.Param); ok && q == prm {
						d, err := rel.DistinctCount(rel.Columns()[i])
						if err == nil && float64(d) < best {
							best = float64(d)
						}
					}
				}
			}
		}
		if math.IsInf(best, 1) {
			return 0
		}
		total *= best
	}
	return total
}
