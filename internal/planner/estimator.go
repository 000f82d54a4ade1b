// Package planner searches for good query-flock plans. It provides
//
//   - a System-R-style cost model over catalog statistics (§4.2's "the
//     general theory of cost-based optimization applies here"),
//   - the static search heuristics of §4.3: per-parameter-set filter
//     selection (heuristic 1, generalizing a-priori for item pairs) and
//     the level-wise / cascade construction (heuristic 2, generalizing
//     a-priori for k-item sets, including the Fig. 7 n+1-step plan), and
//   - the dynamic strategy of §4.4, which has "no analog in conventional
//     query optimization": it decides whether to apply a FILTER step only
//     after seeing the sizes of intermediate relations.
package planner

import (
	"fmt"
	"math"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// Estimator predicts evaluation costs and filter benefits from catalog
// statistics, under the classic independence assumptions: join on a shared
// column divides the cross product by the larger distinct count, and
// columns are independent.
type Estimator struct {
	db    *storage.Database
	stats *storage.Stats
}

// NewEstimator builds an estimator over the database's current statistics.
func NewEstimator(db *storage.Database) *Estimator {
	return &Estimator{db: db, stats: storage.NewStats(db)}
}

// Stats exposes the underlying statistics view.
func (e *Estimator) Stats() *storage.Stats { return e.stats }

// RuleRows estimates the number of binding tuples produced by joining all
// positive subgoals of r (before projection). Negated subgoals and
// comparisons are credited a fixed selectivity each.
func (e *Estimator) RuleRows(r *datalog.Rule) float64 {
	const (
		negSelectivity = 0.8
		cmpSelectivity = 0.5
	)
	rows := 1.0
	distinct := make(map[string]float64) // term column -> current distinct estimate
	for _, a := range r.PositiveAtoms() {
		rel, err := e.db.Source(a.Pred)
		if err != nil {
			continue // unknown relations contribute nothing; CheckDatabase reports them
		}
		rows *= float64(rel.Len())
		for i, t := range a.Args {
			col, ok := termCol(t)
			if !ok {
				// A constant argument is a selection on the column.
				d := float64(e.stats.Distinct(a.Pred, rel.Columns()[i]))
				if d > 1 {
					rows /= d
				}
				continue
			}
			d := float64(e.stats.Distinct(a.Pred, rel.Columns()[i]))
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
	}
	for range r.NegatedAtoms() {
		rows *= negSelectivity
	}
	for range r.Comparisons() {
		rows *= cmpSelectivity
	}
	return rows
}

// UnionRows sums RuleRows across the union's members.
func (e *Estimator) UnionRows(u datalog.Union) float64 {
	total := 0.0
	for _, r := range u {
		total += e.RuleRows(r)
	}
	return total
}

// ParamCombos estimates the number of distinct value combinations of the
// given parameters available to a rule: the product over parameters of the
// smallest distinct count among the columns where the parameter occurs
// positively.
func (e *Estimator) ParamCombos(r *datalog.Rule, params []datalog.Param) float64 {
	total := 1.0
	for _, p := range params {
		best := math.Inf(1)
		for _, a := range r.PositiveAtoms() {
			rel, err := e.db.Source(a.Pred)
			if err != nil {
				continue
			}
			for i, t := range a.Args {
				if q, ok := t.(datalog.Param); ok && q == p {
					d := float64(e.stats.Distinct(a.Pred, rel.Columns()[i]))
					if d < best {
						best = d
					}
				}
			}
		}
		if math.IsInf(best, 1) || best < 1 {
			best = 1
		}
		total *= best
	}
	return total
}

// AvgGroupSize estimates the average number of query-result tuples per
// parameter assignment for the rule — the quantity §4.4 compares against
// the support threshold to decide whether filtering is worthwhile.
func (e *Estimator) AvgGroupSize(r *datalog.Rule, params []datalog.Param) float64 {
	combos := e.ParamCombos(r, params)
	if combos < 1 {
		combos = 1
	}
	return e.RuleRows(r) / combos
}

// SurvivorFraction estimates the fraction of parameter assignments that
// survive the support threshold under the given subquery. For the common
// single-atom, single-parameter subquery (e.g. okS: symptoms in >= 20
// exhibits tuples) the estimate is exact, computed from the relation's
// group-size distribution; otherwise it falls back to a smooth heuristic
// in the average group size.
func (e *Estimator) SurvivorFraction(sub datalog.Union, params []datalog.Param, threshold int) float64 {
	if len(sub) == 1 && len(params) == 1 {
		r := sub[0]
		atoms := r.PositiveAtoms()
		if len(atoms) == 1 && len(r.Body) == 1 {
			rel, err := e.db.Source(atoms[0].Pred)
			if err == nil {
				for i, t := range atoms[0].Args {
					if q, ok := t.(datalog.Param); ok && q == params[0] {
						return e.stats.SurvivorFraction(atoms[0].Pred, rel.Columns()[i], threshold)
					}
				}
			}
		}
	}
	// Heuristic: with average group size g against threshold t, model the
	// group-size distribution as exponential with mean g; the survivor
	// fraction is then exp(-t/g).
	total := 0.0
	for _, r := range sub {
		g := e.AvgGroupSize(r, params)
		if g <= 0 {
			continue
		}
		frac := math.Exp(-float64(threshold) / g)
		total += frac
	}
	if total > 1 {
		total = 1
	}
	return total
}

// FilterBenefit summarizes the estimated effect of one candidate FILTER
// step.
type FilterBenefit struct {
	Params       []datalog.Param
	Subquery     datalog.Union
	Cost         float64 // estimated rows materialized by the step's query
	AvgGroup     float64 // estimated tuples per parameter assignment
	SurvivorFrac float64 // estimated fraction of assignments kept
}

// String renders the benefit estimate.
func (b FilterBenefit) String() string {
	return fmt.Sprintf("params %v: cost %.0f rows, avg group %.2f, survivors %.1f%%",
		b.Params, b.Cost, b.AvgGroup, 100*b.SurvivorFrac)
}

// EstimateFilter evaluates a candidate parameter set for the flock,
// choosing the minimal safe subquery per rule (§3.4).
func (e *Estimator) EstimateFilter(f *core.Flock, params []datalog.Param, threshold int) (FilterBenefit, error) {
	sub, err := core.UnionSubquery(f.Query, params)
	if err != nil {
		return FilterBenefit{}, err
	}
	avg := 0.0
	for _, r := range sub {
		avg += e.AvgGroupSize(r, params)
	}
	return FilterBenefit{
		Params:       params,
		Subquery:     sub,
		Cost:         e.UnionRows(sub),
		AvgGroup:     avg,
		SurvivorFrac: e.SurvivorFraction(sub, params, threshold),
	}, nil
}

func termCol(t datalog.Term) (string, bool) {
	switch x := t.(type) {
	case datalog.Var:
		return string(x), true
	case datalog.Param:
		return "$" + string(x), true
	default:
		return "", false
	}
}

// thresholdOf extracts an integer support threshold from the flock's
// filter for estimation purposes (SUM-style thresholds round up).
func thresholdOf(f *core.Flock) int {
	v := f.Filter.Spec().Threshold
	switch v.Kind() {
	case storage.KindInt:
		return int(v.AsInt())
	case storage.KindFloat:
		return int(math.Ceil(v.AsFloat()))
	default:
		return 1
	}
}
