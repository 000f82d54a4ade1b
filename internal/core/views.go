package core

import (
	"fmt"
	"time"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/storage"
)

// This file implements intermediate predicates — the extension §2.2 calls
// feasible but leaves aside: "to include patients with several diseases
// simultaneously, we would have to extend our query-flocks language to
// allow intermediate predicates (in particular, a predicate relating
// patients to the set of symptoms from all their diseases)". A view is a
// non-recursive, parameter-free rule defining a derived relation; views
// are materialized before the flock's query runs, and every evaluation
// strategy (direct, naive, plans, dynamic) sees them as ordinary
// relations.

// validateViews checks the flock's views: each must be safe, mention no
// parameters, and reference only base relations or views declared earlier
// (no recursion). Multiple rules may share a head predicate (a union
// view) when declared contiguously.
func validateViews(views []*datalog.Rule) error {
	defined := make(map[string]bool)
	for i, v := range views {
		if vs := datalog.CheckSafety(v); len(vs) > 0 {
			return fmt.Errorf("core: view %s is unsafe: %v", v.Head, vs[0])
		}
		if ps := v.Params(); len(ps) > 0 {
			return fmt.Errorf("core: view %s mentions parameter %s; views must be parameter-free", v.Head, ps[0])
		}
		for _, t := range v.Head.Args {
			if _, isVar := t.(datalog.Var); !isVar {
				return fmt.Errorf("core: view %s head arguments must be variables", v.Head)
			}
		}
		// A rule may reference heads defined strictly before this rule's
		// own predicate started (self-reference and forward references are
		// recursion).
		for _, pred := range v.Predicates() {
			if pred == v.Head.Pred {
				return fmt.Errorf("core: view %s is recursive", v.Head)
			}
			for _, later := range views[i:] {
				if later.Head.Pred == pred && !defined[pred] {
					return fmt.Errorf("core: view %s references %q before it is defined", v.Head, pred)
				}
			}
		}
		defined[v.Head.Pred] = true
	}
	return nil
}

// viewPredicates returns the set of predicates defined by the flock's
// views.
func (f *Flock) viewPredicates() map[string]bool {
	out := make(map[string]bool, len(f.Views))
	for _, v := range f.Views {
		out[v.Head.Pred] = true
	}
	return out
}

// MaterializeViews evaluates the flock's views against db (in declaration
// order) and returns a database extended with one relation per view
// predicate. The input database must not already contain relations with
// those names. With no views, db itself is returned.
func (f *Flock) MaterializeViews(db *storage.Database, opts *EvalOptions) (*storage.Database, error) {
	if len(f.Views) == 0 {
		return db, nil
	}
	// Views share the evaluation's clock and tuple budget but are never
	// the user-facing answer, so the row cap does not apply to them.
	opts = opts.withGate().subquery()
	out := db.Clone()
	rels := make(map[string]*storage.Relation)
	for _, v := range f.Views {
		var start time.Time
		if opts != nil && opts.Trace != nil {
			start = time.Now()
		}
		if db.Has(v.Head.Pred) {
			return nil, fmt.Errorf("core: view %q collides with an existing relation", v.Head.Pred)
		}
		part, err := eval.EvalRule(out, v, v.Head.Args, opts.evalOpts())
		if err != nil {
			return nil, fmt.Errorf("core: materializing view %s: %w", v.Head, err)
		}
		rel, exists := rels[v.Head.Pred]
		if !exists {
			cols := make([]string, len(v.Head.Args))
			for i := range v.Head.Args {
				cols[i] = fmt.Sprintf("c%d", i+1)
			}
			// In the first rule's dictionary, so the union moves ID rows.
			rel = storage.NewRelationIn(part.Dict(), v.Head.Pred, cols...)
			rels[v.Head.Pred] = rel
			out.Add(rel)
		}
		if rel.Arity() != part.Arity() {
			return nil, fmt.Errorf("core: view %q rules disagree on arity (%d vs %d)",
				v.Head.Pred, rel.Arity(), part.Arity())
		}
		rel.InsertAll(part)
		if opts != nil && opts.Trace != nil {
			opts.Trace.Collector().Record(obs.Event{
				Op:      obs.OpView,
				Desc:    v.Head.String(),
				RowsIn:  part.Len(),
				RowsOut: rel.Len(),
				Wall:    time.Since(start),
			})
		}
	}
	return out, nil
}
