package core

import (
	"fmt"
	"sort"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
)

// This file implements the naive generate-and-test evaluator, which
// restates the flock semantics of §2 literally: "trying all [parameter]
// assignments in the query, evaluating the query, and seeing whether the
// result passes the filter test". It is exponentially slower than the
// direct evaluator and exists as the correctness oracle the optimized
// strategies are property-tested against, exactly as the paper frames it
// ("of course there are often more efficient ways to compute the meaning
// of a query flock").

// NaiveLimit bounds the number of candidate assignments EvalNaive will
// enumerate before giving up, protecting tests from accidental blowups.
const NaiveLimit = 1_000_000

// EvalNaive computes the flock's answer by enumerating candidate parameter
// assignments and evaluating the instantiated query for each one.
//
// Candidates for a parameter are the values found in the database columns
// where the parameter appears in a positive subgoal; any assignment outside
// that set yields an empty query result, which cannot pass the filter
// (PassesEmpty is rejected at construction of the evaluation), so the
// enumeration is complete.
//
// opts may be nil. Under EvalOptions the request context, wall clock, and
// tuple/row budgets flow through the shared gate into every
// per-assignment query evaluation, and the enumeration itself checks the
// gate between assignments — so a served naive query can be canceled and
// budgeted like every other strategy instead of running to completion.
// Answers are identical whenever no limit fires.
func (f *Flock) EvalNaive(db *storage.Database, opts *EvalOptions) (*storage.Relation, error) {
	if f.Filter.PassesEmpty() {
		return nil, fmt.Errorf("core: filter %s accepts the empty result; the flock's answer would be infinite", f.Filter)
	}
	if err := f.CheckDatabase(db); err != nil {
		return nil, err
	}
	opts = opts.withGate() // views and every assignment share one clock/budget
	db, err := f.MaterializeViews(db, opts)
	if err != nil {
		return nil, err
	}

	candidates, err := paramCandidates(db, f.Params, f.Query)
	if err != nil {
		return nil, err
	}
	total := 1
	for _, c := range candidates {
		total *= len(c)
		if total > NaiveLimit {
			return nil, fmt.Errorf("core: naive evaluation needs more than %d assignments", NaiveLimit)
		}
	}

	gate := opts.gate()
	out := storage.NewRelation("flock", f.ParamColumns()...)
	assignment := make(datalog.Substitution, len(f.Params))
	tuple := make(storage.Tuple, len(f.Params))
	var enumerate func(i int) error
	enumerate = func(i int) error {
		if i == len(f.Params) {
			if err := gate.Check(); err != nil {
				return err
			}
			pass, err := f.testAssignment(db, assignment, opts)
			if err != nil {
				return err
			}
			if pass {
				out.Insert(tuple)
				if err := gate.CheckOutput(out.Len()); err != nil {
					return err
				}
			}
			return nil
		}
		for _, v := range candidates[i] {
			assignment[f.Params[i]] = datalog.C(v)
			tuple[i] = v
			if err := enumerate(i + 1); err != nil {
				return err
			}
		}
		delete(assignment, f.Params[i])
		return nil
	}
	if err := enumerate(0); err != nil {
		return nil, err
	}
	return out, nil
}

// testAssignment instantiates every rule with the assignment, evaluates
// the union (under the shared gate, so cancellation and the tuple budget
// reach into each per-assignment evaluation), and applies the filter.
func (f *Flock) testAssignment(db *storage.Database, s datalog.Substitution, opts *EvalOptions) (bool, error) {
	acc := f.Filter.NewGroup()
	seen := make(map[string]struct{})
	for _, r := range f.Query {
		res, err := eval.EvalGround(db, r.Substitute(s), opts.subquery().evalOpts())
		if err != nil {
			return false, err
		}
		for _, t := range res.Tuples() {
			// Distinct across the union: a head tuple contributed by two
			// rules counts once (set semantics, §2.3).
			k := t.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			acc.Add(t)
			if acc.Done() {
				return true, nil
			}
		}
	}
	return acc.Passes(), nil
}

// paramCandidates returns, per parameter (in params order), the sorted set
// of candidate values: the union over rules of the values in the columns
// where the parameter occurs positively.
func paramCandidates(db *storage.Database, params []datalog.Param, query datalog.Union) ([][]storage.Value, error) {
	//lint:ignore DL005 candidate keys are Normalize()d at the insertion below
	sets := make([]map[storage.Value]struct{}, len(params))
	index := make(map[datalog.Param]int, len(params))
	for i, p := range params {
		//lint:ignore DL005 candidate keys are Normalize()d at the insertion below
		sets[i] = make(map[storage.Value]struct{})
		index[p] = i
	}
	for _, r := range query {
		for _, a := range r.PositiveAtoms() {
			src, err := db.Source(a.Pred)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			// Collect the positions where parameters occur, then stream the
			// relation once for all of them.
			var paramPos [][2]int // (argPos, param index)
			for argPos, t := range a.Args {
				if p, isParam := t.(datalog.Param); isParam {
					paramPos = append(paramPos, [2]int{argPos, index[p]})
				}
			}
			if len(paramPos) == 0 {
				continue
			}
			err = storage.ForEach(src.Scan(), func(tuple storage.Tuple) error {
				for _, pp := range paramPos {
					// Normalize so Equal candidates (Int(1), Float(1))
					// collapse to one assignment instead of enumerating
					// the same group twice.
					sets[pp[1]][tuple[pp[0]].Normalize()] = struct{}{}
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	}
	out := make([][]storage.Value, len(params))
	for i, set := range sets {
		vals := make([]storage.Value, 0, len(set))
		for v := range set {
			vals = append(vals, v)
		}
		// Deterministic order for reproducible failures.
		sortValues(vals)
		out[i] = vals
	}
	return out, nil
}

func sortValues(vs []storage.Value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Compare(vs[j]) < 0 })
}
