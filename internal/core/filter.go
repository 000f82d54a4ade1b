// Package core implements query flocks, the paper's primary contribution:
// a generate-and-test mining model pairing a parametrized query (a union of
// extended conjunctive queries in Datalog) with a filter condition on each
// parameter assignment's query result (§2). The package provides
//
//   - the Flock model with parsing and validation,
//   - monotone filter conditions (COUNT/SUM/MIN/MAX, §5),
//   - a naive generate-and-test evaluator restating the definitional
//     semantics (the correctness oracle),
//   - a direct group-by evaluator,
//   - enumeration of the safe subqueries that generalize the a-priori
//     trick (§3), and
//   - FILTER-step query plans with the §4.2 legality rule and an executor.
package core

import (
	"fmt"

	"queryflocks/internal/datalog"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// Filter is the executable form of a flock's filter condition. It is
// resolved against the flock's head shape: a named target column is mapped
// to a head-argument position once, at construction.
type Filter struct {
	spec    datalog.FilterSpec
	headPos int // position of the target in the head tuple; -1 for '*'
}

// NewFilter resolves a parsed filter condition against the head of the
// flock's (first) rule. Target names must match a head variable.
func NewFilter(spec datalog.FilterSpec, head *datalog.Atom) (Filter, error) {
	if err := spec.Validate(); err != nil {
		return Filter{}, err
	}
	if spec.Target == "" {
		return Filter{spec: spec, headPos: -1}, nil
	}
	for i, t := range head.Args {
		if v, ok := t.(datalog.Var); ok && string(v) == spec.Target {
			return Filter{spec: spec, headPos: i}, nil
		}
	}
	return Filter{}, fmt.Errorf("core: filter target %q is not a head variable of %s", spec.Target, head)
}

// Spec returns the parsed condition.
func (f Filter) Spec() datalog.FilterSpec { return f.spec }

// HeadPos returns the head-argument position the aggregate targets, or -1
// when the aggregate ranges over whole answer tuples ('*').
func (f Filter) HeadPos() int { return f.headPos }

// Monotone reports whether the condition is monotone (§5); only monotone
// filters admit the a-priori subquery optimization.
func (f Filter) Monotone() bool { return f.spec.Monotone() }

// String renders the condition.
func (f Filter) String() string { return f.spec.String() }

// PassesEmpty reports whether an empty query result satisfies the
// condition. A flock whose filter passes on the empty result has an
// infinite answer (every parameter assignment qualifies), so evaluators
// reject such filters.
func (f Filter) PassesEmpty() bool {
	acc := f.NewGroup()
	return acc.Passes()
}

// NewGroup returns a fresh accumulator for one parameter assignment's
// query result. Feed it the distinct head tuples of the result; Passes
// reports the condition. For monotone conditions, Done reports that the
// outcome can no longer change, allowing the caller to short-circuit.
func (f Filter) NewGroup() GroupAcc {
	switch f.spec.Agg {
	case datalog.AggCount:
		if f.headPos < 0 {
			return &countAcc{filter: f}
		}
		//lint:ignore DL005 countDistinctAcc.Add keys by Normalize()
		return &countDistinctAcc{filter: f, seen: make(map[storage.Value]struct{})}
	case datalog.AggSum:
		return &sumAcc{filter: f}
	case datalog.AggMin:
		return &minMaxAcc{filter: f, min: true}
	case datalog.AggMax:
		return &minMaxAcc{filter: f, min: false}
	default:
		panic(fmt.Sprintf("core: unknown aggregate %v", f.spec.Agg))
	}
}

// Aggregate renders the condition for the physical group operator, which
// evaluates it over value IDs; NewGroup's accumulators are the boxed
// reference the materializing oracle and the memo path group with.
func (f Filter) Aggregate() physical.Aggregate {
	a := physical.Aggregate{Col: f.headPos, Monotone: f.Monotone(), Op: f.spec.Op, Threshold: f.spec.Threshold}
	switch f.spec.Agg {
	case datalog.AggCount:
		a.Kind = physical.AggCount
		if f.headPos >= 0 {
			a.Kind = physical.AggCountDistinct
		}
	case datalog.AggSum:
		a.Kind = physical.AggSum
	case datalog.AggMin:
		a.Kind = physical.AggMin
	case datalog.AggMax:
		a.Kind = physical.AggMax
	default:
		panic(fmt.Sprintf("core: unknown aggregate %v", f.spec.Agg))
	}
	return a
}

// GroupAcc accumulates one group's head tuples and decides the filter.
type GroupAcc interface {
	// Add feeds one distinct head tuple of the group's query result.
	Add(head storage.Tuple)
	// Passes reports whether the condition currently holds.
	Passes() bool
	// Done reports that further Adds cannot change Passes (monotone
	// short-circuit); always false for non-monotone conditions.
	Done() bool
}

func (f Filter) compare(agg storage.Value) bool {
	return f.spec.Op.Eval(agg, f.spec.Threshold)
}

// countAcc implements COUNT(answer(*)).
type countAcc struct {
	filter Filter
	n      int64
}

func (a *countAcc) Add(storage.Tuple) { a.n++ }
func (a *countAcc) Passes() bool      { return a.filter.compare(storage.Int(a.n)) }
func (a *countAcc) Done() bool        { return a.filter.Monotone() && a.Passes() }

// countDistinctAcc implements COUNT(answer.Col): distinct values of one
// head column. Values are normalized before keying so the count respects
// semantic equality — Int(1) and Float(1) are one value, not two (they
// compare Equal and share a join key everywhere else in the engine).
type countDistinctAcc struct {
	filter Filter
	//lint:ignore DL005 Add keys by Normalize(), so Equal values share a slot
	seen map[storage.Value]struct{}
}

func (a *countDistinctAcc) Add(head storage.Tuple) {
	a.seen[head[a.filter.headPos].Normalize()] = struct{}{}
}
func (a *countDistinctAcc) Passes() bool {
	return a.filter.compare(storage.Int(int64(len(a.seen))))
}
func (a *countDistinctAcc) Done() bool { return a.filter.Monotone() && a.Passes() }

// sumAcc implements SUM(answer.Col) over the distinct head tuples. The §5
// monotonicity argument assumes non-negative weights. Done never fires for
// SUM: a short-circuit decision taken mid-stream is unsound because a
// negative weight arriving later can drag the sum back below the
// threshold, making the verdict depend on tuple order. (COUNT/MIN/MAX do
// not have this failure mode: their aggregates move in one direction no
// matter what arrives next.)
type sumAcc struct {
	filter   Filter
	sum      float64
	sawValue bool
}

func (a *sumAcc) Add(head storage.Tuple) {
	a.sum += head[a.filter.headPos].AsFloat()
	a.sawValue = true
}
func (a *sumAcc) Passes() bool {
	if !a.sawValue {
		return false // SUM over an empty result is undefined, not 0
	}
	return a.filter.compare(storage.Float(a.sum))
}
func (a *sumAcc) Done() bool { return false }

// minMaxAcc implements MIN/MAX(answer.Col).
type minMaxAcc struct {
	filter Filter
	min    bool
	cur    storage.Value
	has    bool
}

func (a *minMaxAcc) Add(head storage.Tuple) {
	v := head[a.filter.headPos]
	if !a.has {
		a.cur, a.has = v, true
		return
	}
	c := v.Compare(a.cur)
	if a.min && c < 0 || !a.min && c > 0 {
		a.cur = v
	}
}
func (a *minMaxAcc) Passes() bool {
	if !a.has {
		return false
	}
	return a.filter.compare(a.cur)
}
func (a *minMaxAcc) Done() bool { return a.filter.Monotone() && a.Passes() }
