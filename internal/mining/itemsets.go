// Package mining builds mining applications out of sequences of query
// flocks. It implements footnote 2 of the paper: finding the frequent item
// sets of every cardinality "would be expressed as a sequence of query
// flocks for increasing cardinalities, with each flock depending on the
// result of the previous flock".
//
// The k-th flock asks for k-item sets in at least `support` baskets; its
// query is extended with one subgoal per (k-1)-subset of its parameters,
// each referencing the previous flock's answer relation. By the a-priori
// property those subgoals are implied for every qualifying assignment, so
// the extension preserves the answer while letting the engine semi-join
// against the (small) previous level — the level-wise algorithm of [AS94],
// reconstructed inside the flock framework.
package mining

import (
	"fmt"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// Result holds the frequent itemsets found by the flock sequence.
type Result struct {
	// Levels[k-1] is the frequent k-itemset relation, with columns
	// $1..$k holding the items of each set in increasing order.
	Levels []*storage.Relation
	// Flocks[k-1] is the flock that produced level k (after extension
	// with the previous level's relation), for inspection.
	Flocks []*core.Flock
}

// Options configures the mining sequence.
type Options struct {
	// MaxK bounds the itemset cardinality (0 = mine until a level is
	// empty).
	MaxK int
	// Relation names the baskets relation; default "baskets". It must
	// have two columns (basket ID, item).
	Relation string
	// Eval configures the underlying flock evaluations.
	Eval *core.EvalOptions
}

func (o *Options) orDefault() Options {
	out := Options{Relation: "baskets"}
	if o == nil {
		return out
	}
	out.MaxK = o.MaxK
	if o.Relation != "" {
		out.Relation = o.Relation
	}
	out.Eval = o.Eval
	return out
}

// levelRelName names the k-th level's relation in the working database.
func levelRelName(k int) string { return fmt.Sprintf("freq%d", k) }

// FrequentItemsets runs the flock sequence and returns every level.
func FrequentItemsets(db *storage.Database, support int, opts *Options) (*Result, error) {
	o := opts.orDefault()
	if support < 1 {
		return nil, fmt.Errorf("mining: support must be >= 1, got %d", support)
	}
	base, err := db.Relation(o.Relation)
	if err != nil {
		return nil, fmt.Errorf("mining: %w", err)
	}
	if base.Arity() != 2 {
		return nil, fmt.Errorf("mining: relation %q has arity %d, want 2 (basket, item)", o.Relation, base.Arity())
	}

	scratch := db.Clone()
	res := &Result{}
	for k := 1; o.MaxK == 0 || k <= o.MaxK; k++ {
		if scratch.Has(levelRelName(k)) {
			return nil, fmt.Errorf("mining: database already has a relation named %q", levelRelName(k))
		}
		flock, err := levelFlock(o.Relation, support, k)
		if err != nil {
			return nil, err
		}
		res.Flocks = append(res.Flocks, flock)
		level, err := flock.Eval(scratch, o.Eval)
		if err != nil {
			return nil, fmt.Errorf("mining: level %d: %w", k, err)
		}
		if level.Len() == 0 {
			break
		}
		res.Levels = append(res.Levels, level.Rename(levelRelName(k), nil))
		scratch.Add(res.Levels[k-1])
		// A level with fewer sets than k+1 singletons cannot extend.
		if k >= 2 && level.Len() < k+1 {
			break
		}
	}
	return res, nil
}

// levelFlock builds the k-th flock of the sequence. For k >= 2 the query
// includes one subgoal per (k-1)-subset of the parameters, referencing the
// previous level's relation.
func levelFlock(relation string, support, k int) (*core.Flock, error) {
	params := make([]datalog.Param, k)
	for i := range params {
		params[i] = datalog.Param(fmt.Sprintf("%d", i+1))
	}
	body := make([]datalog.Subgoal, 0, 2*k+k)
	for _, p := range params {
		body = append(body, datalog.NewAtom(relation, datalog.Var("B"), p))
	}
	for i := 0; i+1 < k; i++ {
		body = append(body, &datalog.Comparison{Op: datalog.Lt, Left: params[i], Right: params[i+1]})
	}
	if k >= 2 {
		prev := levelRelName(k - 1)
		for skip := k - 1; skip >= 0; skip-- {
			args := make([]datalog.Term, 0, k-1)
			for i, p := range params {
				if i != skip {
					args = append(args, p)
				}
			}
			if len(args) > 0 {
				body = append(body, datalog.NewAtom(prev, args...))
			}
		}
	}
	rule := datalog.NewRule(datalog.NewAtom("answer", datalog.Var("B")), body...)
	spec := datalog.FilterSpec{
		Agg:       datalog.AggCount,
		Target:    "B",
		Op:        datalog.Ge,
		Threshold: storage.Int(int64(support)),
	}
	return core.New(datalog.Union{rule}, spec)
}

// MaximalItemsets filters the result down to the maximal frequent sets
// (those with no frequent superset) — the quantity footnote 2 describes.
func (r *Result) MaximalItemsets() []storage.Tuple {
	var out []storage.Tuple
	for k := 0; k < len(r.Levels); k++ {
		var supers []storage.Tuple // level k+1, decoded once
		if k+1 < len(r.Levels) {
			supers = r.Levels[k+1].Tuples()
		}
	tuples:
		for _, t := range r.Levels[k].Tuples() {
			// t is maximal unless some (k+2)-set extends it.
			for _, super := range supers {
				if isSubsetSorted(t, super) {
					continue tuples
				}
			}
			out = append(out, t)
		}
	}
	return out
}

// isSubsetSorted reports whether sorted tuple a is a subsequence of sorted
// tuple b.
func isSubsetSorted(a, b storage.Tuple) bool {
	i := 0
	for j := 0; j < len(b) && i < len(a); j++ {
		if a[i].Equal(b[j]) {
			i++
		}
	}
	return i == len(a)
}

// Count returns the total number of frequent itemsets across levels.
func (r *Result) Count() int {
	total := 0
	for _, l := range r.Levels {
		total += l.Len()
	}
	return total
}
