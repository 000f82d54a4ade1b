package datalog

import "fmt"

// This file implements the safety conditions of §3.2–§3.3. A safe query is
// one whose result is finite on every database, and only safe subqueries
// can serve as a-priori-style pre-filters. Per §3.3 there are three
// conditions, and "parameters are variables, not constants" for conditions
// (2) and (3); parameters never appear in heads, so condition (1) does not
// involve them.

// SafetyViolation describes one way a rule fails the safety conditions.
type SafetyViolation struct {
	Condition int    // 1, 2, or 3, numbered as in §3.3
	Term      string // the offending variable or parameter, rendered
	Subgoal   string // the subgoal that triggered the requirement ("" for heads)
	// Pos anchors the violation: the offending subgoal's position, or the
	// head's for condition (1). Zero for programmatically built rules.
	Pos Pos
}

// Error renders the violation.
func (v SafetyViolation) Error() string {
	where := "the head"
	if v.Subgoal != "" {
		where = fmt.Sprintf("subgoal %s", v.Subgoal)
	}
	return fmt.Sprintf("safety condition (%d): %s in %s does not appear in a positive relational subgoal",
		v.Condition, v.Term, where)
}

// CheckSafety returns all safety violations of the rule, or nil if the rule
// is safe. The three conditions (§3.3):
//
//  1. Every variable in the head appears in a non-negated, non-arithmetic
//     subgoal of the body.
//  2. Every variable (or parameter) in a negated subgoal appears in a
//     non-negated, non-arithmetic subgoal.
//  3. Every variable (or parameter) in an arithmetic subgoal appears in a
//     non-negated, non-arithmetic subgoal.
func CheckSafety(r *Rule) []SafetyViolation {
	positive := make(map[Term]struct{})
	for _, a := range r.PositiveAtoms() {
		for _, t := range a.Args {
			switch t.(type) {
			case Var, Param:
				positive[t] = struct{}{}
			}
		}
	}
	limited := func(t Term) bool {
		switch t.(type) {
		case Var, Param:
			_, ok := positive[t]
			return ok
		default: // constants are always limited
			return true
		}
	}

	var out []SafetyViolation
	for _, t := range r.Head.Args {
		if _, isVar := t.(Var); isVar && !limited(t) {
			out = append(out, SafetyViolation{Condition: 1, Term: t.String(), Pos: r.Head.Pos})
		}
	}
	for _, a := range r.NegatedAtoms() {
		for _, t := range a.Args {
			if !limited(t) {
				out = append(out, SafetyViolation{Condition: 2, Term: t.String(), Subgoal: a.String(), Pos: a.Pos})
			}
		}
	}
	for _, c := range r.Comparisons() {
		for _, t := range []Term{c.Left, c.Right} {
			if !limited(t) {
				out = append(out, SafetyViolation{Condition: 3, Term: t.String(), Subgoal: c.String(), Pos: c.Pos})
			}
		}
	}
	return out
}

// IsSafe reports whether the rule satisfies all three safety conditions.
func IsSafe(r *Rule) bool { return len(CheckSafety(r)) == 0 }
