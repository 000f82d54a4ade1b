package analysis

import (
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
)

// This file holds the semantic passes. Each maps one class of flock-program
// problem to a stable QFxxx code; docs/LANGUAGE.md catalogues them with
// minimal offending programs.

// passViews checks the view discipline of the §2.2 extension (QF015):
// views must be parameter-free, have variable-only heads, and form a
// non-recursive sequence (each view references only base relations or
// views defined strictly earlier).
func passViews(a *analyzer) {
	defined := make(map[string]bool)
	heads := make(map[string]bool)
	for _, v := range a.fs.Views {
		heads[v.Head.Pred] = true
	}
	for _, v := range a.fs.Views {
		if ps := v.Params(); len(ps) > 0 {
			a.report("QF015", SevError, v.Position(),
				"view %s mentions parameter %s; views must be parameter-free", v.Head, ps[0])
		}
		for _, t := range v.Head.Args {
			if _, isVar := t.(datalog.Var); !isVar {
				a.report("QF015", SevError, v.Position(),
					"view %s head arguments must be variables", v.Head)
				break
			}
		}
		for _, pred := range v.Predicates() {
			if pred == v.Head.Pred {
				a.report("QF015", SevError, v.Position(), "view %s is recursive", v.Head)
			} else if heads[pred] && !defined[pred] {
				a.report("QF015", SevError, v.Position(),
					"view %s references %q before it is defined", v.Head, pred)
			}
		}
		defined[v.Head.Pred] = true
	}
}

// passSafety reports every violation of the §3.3 safety conditions (QF002)
// in query rules and views. An unsafe rule has an infinite result on some
// database, so it can neither be evaluated nor serve as an a-priori
// subquery.
func passSafety(a *analyzer) {
	check := func(r *datalog.Rule, what string) {
		for _, v := range datalog.CheckSafety(r) {
			pos := v.Pos
			if !pos.IsValid() {
				pos = r.Position()
			}
			a.report("QF002", SevError, pos, "%s %s is unsafe: %v", what, r.Head, v)
		}
	}
	for _, v := range a.fs.Views {
		check(v, "view")
	}
	for _, r := range a.fs.Query {
		check(r, "rule")
	}
}

// passParamsInHead rejects parameters in rule heads (QF003): a flock is a
// query *about* its parameters; the head describes each assignment's
// result, so a parameter there conflates the two levels.
func passParamsInHead(a *analyzer) {
	for _, r := range a.fs.Query {
		if hp := r.HeadParams(); len(hp) > 0 {
			a.report("QF003", SevError, r.Head.Pos,
				"parameter %s appears in the head of %s", hp[0], r.Head)
		}
	}
}

// passUnboundParams requires every parameter of the flock to appear in a
// positive relational subgoal of every rule (QF004). A rule that leaves a
// parameter unconstrained makes the flock's answer infinite: any value of
// that parameter yields the same query result.
func passUnboundParams(a *analyzer) {
	params := a.fs.Query.Params()
	for _, r := range a.fs.Query {
		positive := make(map[datalog.Param]bool)
		for _, at := range r.PositiveAtoms() {
			for _, t := range at.Args {
				if p, ok := t.(datalog.Param); ok {
					positive[p] = true
				}
			}
		}
		for _, p := range params {
			if !positive[p] {
				a.report("QF004", SevError, r.Position(),
					"parameter %s does not appear in a positive subgoal of rule %s; its binding is unconstrained", p, r.Head)
			}
		}
	}
}

// passNoParams rejects parameter-free flocks (QF005): with nothing to
// mine over, the FILTER section has no answer relation to build.
func passNoParams(a *analyzer) {
	if len(a.fs.Query) > 0 && len(a.fs.Query.Params()) == 0 {
		a.report("QF005", SevError, a.fs.Query[0].Position(), "flock query has no parameters")
	}
}

// passFilter resolves the filter condition against the query head and
// checks the §5 properties:
//
//   - QF006: the target must name a head variable of the first rule;
//   - QF007: a condition satisfied by the empty result makes every
//     parameter assignment an answer — the flock's answer is infinite;
//   - QF008: a non-monotone condition evaluates, but disables a-priori
//     subquery pruning (§3) and FILTER plans (§4.2 legality rule 1).
func passFilter(a *analyzer) {
	if len(a.fs.Query) == 0 {
		return
	}
	f, err := core.NewFilter(a.fs.Filter, a.fs.Query[0].Head)
	if err != nil {
		a.report("QF006", SevError, a.fs.FilterPos,
			"filter target %q is not a head variable of %s", a.fs.Filter.Target, a.fs.Query[0].Head)
		return
	}
	if f.PassesEmpty() {
		a.report("QF007", SevError, a.fs.FilterPos,
			"filter %s is satisfied by an empty query result, so every parameter assignment qualifies (infinite answer)", f)
		return
	}
	if !f.Monotone() {
		a.report("QF008", SevWarning, a.fs.FilterPos,
			"filter %s is not monotone; a-priori subquery pruning (§3) and FILTER plans (§4.2) are unavailable", f)
	}
}

// passComparisons evaluates arithmetic subgoals that do not depend on any
// binding: constant-vs-constant comparisons and comparisons of a term with
// itself. An always-false subgoal (QF011) silences its rule; an
// always-true one (QF012) is dead weight.
func passComparisons(a *analyzer) {
	for _, r := range a.fs.Query {
		for _, c := range r.Comparisons() {
			if lc, ok := c.Left.(datalog.Const); ok {
				if rc, ok := c.Right.(datalog.Const); ok {
					if c.Op.Eval(lc.Val, rc.Val) {
						a.report("QF012", SevWarning, c.Pos,
							"comparison %s is always true and can be deleted", c)
					} else {
						a.report("QF011", SevWarning, c.Pos,
							"comparison %s is always false; rule %s can produce no answers", c, r.Head)
					}
					continue
				}
			}
			if sameTerm(c.Left, c.Right) {
				switch c.Op {
				case datalog.Lt, datalog.Gt, datalog.Ne:
					a.report("QF011", SevWarning, c.Pos,
						"comparison %s is always false; rule %s can produce no answers", c, r.Head)
				case datalog.Le, datalog.Ge, datalog.Eq:
					a.report("QF012", SevWarning, c.Pos,
						"comparison %s is always true and can be deleted", c)
				}
			}
		}
	}
}

func sameTerm(x, y datalog.Term) bool {
	switch l := x.(type) {
	case datalog.Var:
		r, ok := y.(datalog.Var)
		return ok && l == r
	case datalog.Param:
		r, ok := y.(datalog.Param)
		return ok && l == r
	default:
		return false
	}
}

// passRedundantSubgoal flags subgoals whose deletion leaves an equivalent
// query (QF009). For a pure conjunctive query the test is exact via
// containment mappings (§3.1): deleting a subgoal can only grow the
// result, so the rule is equivalent to the reduced one iff the reduced one
// is contained in it — iff the full rule maps homomorphically onto the
// reduced body. For extended CQs (negation, arithmetic) only literal
// duplicate subgoals are flagged, the sound syntactic special case.
func passRedundantSubgoal(a *analyzer) {
	budget := a.opts.budget()
	for _, r := range a.fs.Query {
		if len(r.NegatedAtoms()) == 0 && len(r.Comparisons()) == 0 {
			for i := range r.Body {
				if len(r.Body) == 1 {
					break
				}
				reduced := r.DeleteSubgoals(i)
				contained, decided, err := datalog.ContainsBounded(r, reduced, budget)
				if err != nil || !decided {
					continue
				}
				if contained {
					a.report("QF009", SevWarning, r.Body[i].Position(),
						"subgoal %s is redundant: deleting it leaves an equivalent query (containment mapping, §3.1)", r.Body[i])
				}
			}
			continue
		}
		// Extended CQ: flag literal duplicates only.
		for i := range r.Body {
			for j := range r.Body[:i] {
				if r.Body[i].String() == r.Body[j].String() {
					a.report("QF009", SevWarning, r.Body[i].Position(),
						"subgoal %s duplicates an earlier subgoal and can be deleted", r.Body[i])
					break
				}
			}
		}
	}
}

// passSubsumedBranch flags union branches contained in another branch
// (QF010): by the union-containment condition of §3.4 ([SY80]) such a
// branch contributes nothing to the flock's answer. Only pure-CQ branch
// pairs are tested.
func passSubsumedBranch(a *analyzer) {
	budget := a.opts.budget()
	pure := func(r *datalog.Rule) bool {
		return len(r.NegatedAtoms()) == 0 && len(r.Comparisons()) == 0
	}
	for j, rj := range a.fs.Query {
		if !pure(rj) {
			continue
		}
		for i, ri := range a.fs.Query {
			if i == j || !pure(ri) {
				continue
			}
			contained, decided, err := datalog.ContainsBounded(ri, rj, budget)
			if err != nil || !decided || !contained {
				continue
			}
			// Equivalent pair: flag only the later branch, once.
			if i > j {
				back, decidedBack, _ := datalog.ContainsBounded(rj, ri, budget)
				if decidedBack && back {
					continue
				}
			}
			a.report("QF010", SevWarning, rj.Position(),
				"union branch %d is contained in branch %d and can be deleted (§3.4)", j+1, i+1)
			break
		}
	}
}

// passSingletonVars flags variables used exactly once in a rule's body
// (QF013): a join variable that joins nothing is usually a typo for
// another variable or a parameter. Head occurrences count as uses, and
// head-only variables are already QF002 (unsafe), so only body singletons
// reach this pass.
func passSingletonVars(a *analyzer) {
	for _, r := range a.fs.Query {
		counts := make(map[datalog.Var]int)
		where := make(map[datalog.Var]datalog.Pos)
		seen := func(t datalog.Term, pos datalog.Pos) {
			if v, ok := t.(datalog.Var); ok {
				counts[v]++
				if _, have := where[v]; !have {
					where[v] = pos
				}
			}
		}
		for _, t := range r.Head.Args {
			seen(t, r.Head.Pos)
			if v, ok := t.(datalog.Var); ok {
				counts[v]++ // head use makes a single body occurrence legitimate
			}
		}
		for _, sg := range r.Body {
			switch g := sg.(type) {
			case *datalog.Atom:
				for _, t := range g.Args {
					seen(t, g.Pos)
				}
			case *datalog.Comparison:
				seen(g.Left, g.Pos)
				seen(g.Right, g.Pos)
			}
		}
		for _, v := range r.Vars() {
			if counts[v] == 1 {
				a.report("QF013", SevWarning, where[v],
					"variable %s is used only once in rule %s; a misspelled join variable?", v, r.Head)
			}
		}
	}
}

// passSchema checks every referenced relation against a loaded database
// (QF016): the relation must exist and its arity must match the atom's.
// Predicates defined by the flock's views are checked against the view's
// declared arity instead. The pass is inert without Options.DB.
func passSchema(a *analyzer) {
	if a.opts.DB == nil {
		return
	}
	viewArity := make(map[string]int, len(a.fs.Views))
	for _, v := range a.fs.Views {
		viewArity[v.Head.Pred] = len(v.Head.Args)
	}
	check := func(r *datalog.Rule) {
		for _, sg := range r.Body {
			at, ok := sg.(*datalog.Atom)
			if !ok {
				continue
			}
			if arity, isView := viewArity[at.Pred]; isView {
				if arity != len(at.Args) {
					a.report("QF016", SevError, at.Pos,
						"atom %s has %d arguments but view %s has %d", at, len(at.Args), at.Pred, arity)
				}
				continue
			}
			src, err := a.opts.DB.Source(at.Pred)
			if err != nil {
				a.report("QF016", SevError, at.Pos, "relation %q not found in the database", at.Pred)
				continue
			}
			if src.Arity() != len(at.Args) {
				a.report("QF016", SevError, at.Pos,
					"atom %s has %d arguments but relation %s has %d columns", at, len(at.Args), at.Pred, src.Arity())
			}
		}
	}
	for _, v := range a.fs.Views {
		check(v)
	}
	for _, r := range a.fs.Query {
		check(r)
	}
}
