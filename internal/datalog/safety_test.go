package datalog

import (
	"strings"
	"testing"
)

func TestSafetyBasics(t *testing.T) {
	cases := []struct {
		src  string
		safe bool
		cond int // first violated condition when unsafe
	}{
		{"answer(B) :- baskets(B,$1)", true, 0},
		{"answer(B) :- baskets(X,$1)", false, 1},      // head var B unlimited
		{"answer(P) :- NOT causes(D,$s)", false, 1},   // also violates 2; head first
		{"answer(X) :- r(X) AND NOT s(Y)", false, 2},  // Y only in negation
		{"answer(X) :- r(X) AND NOT s($p)", false, 2}, // param only in negation
		{"answer(X) :- r(X) AND Y < 3", false, 3},     // Y only in arithmetic
		{"answer(X) :- r(X) AND $p < 3", false, 3},    // param only in arithmetic
		{"answer(X) :- r(X,Y) AND NOT s(Y) AND Y < 3", true, 0},
		{"answer(X) :- r(X) AND 2 < 3", true, 0}, // constants are limited
		{"answer(X) :- r(X,beer)", true, 0},
	}
	for _, c := range cases {
		r := mustRule(t, c.src)
		vs := CheckSafety(r)
		if (len(vs) == 0) != c.safe {
			t.Errorf("%q: safe = %v, want %v (violations %v)", c.src, len(vs) == 0, c.safe, vs)
			continue
		}
		if !c.safe && vs[0].Condition != c.cond {
			t.Errorf("%q: first violation condition %d, want %d", c.src, vs[0].Condition, c.cond)
		}
	}
}

// TestSafetyExample32 reproduces the worked enumeration of Example 3.2:
// of the 14 nontrivial proper subsets of the medical query's 4 subgoals,
// exactly 8 are safe. Condition (1) rules out the subquery with only
// "NOT causes(D,$s)"; condition (2) rules out the other five subsets that
// include the negated subgoal without both diagnoses(P,D) and
// exhibits(P,$s).
func TestSafetyExample32(t *testing.T) {
	r := mustRule(t, medicalRule)
	if len(r.Body) != 4 {
		t.Fatal("medical rule should have 4 subgoals")
	}
	var safe, unsafe int
	var safeSubs []string
	for mask := 1; mask < 15; mask++ { // nonempty proper subsets
		var drop []int
		for i := 0; i < 4; i++ {
			if mask&(1<<i) == 0 {
				drop = append(drop, i)
			}
		}
		sub := r.DeleteSubgoals(drop...)
		if IsSafe(sub) {
			safe++
			safeSubs = append(safeSubs, sub.String())
		} else {
			unsafe++
		}
	}
	if safe != 8 || unsafe != 6 {
		t.Fatalf("safe = %d, unsafe = %d; want 8 and 6\nsafe: %s",
			safe, unsafe, strings.Join(safeSubs, "\n  "))
	}
	// The four candidate subqueries the paper highlights must be among them.
	wanted := []string{
		"answer(P) :- exhibits(P,$s)",
		"answer(P) :- treatments(P,$m)",
		"answer(P) :- exhibits(P,$s) AND diagnoses(P,D) AND NOT causes(D,$s)",
		"answer(P) :- exhibits(P,$s) AND treatments(P,$m)",
	}
	have := make(map[string]bool)
	for _, s := range safeSubs {
		have[s] = true
	}
	for _, w := range wanted {
		if !have[w] {
			t.Errorf("expected safe subquery missing: %s", w)
		}
	}
}

// TestSafetyBruteForceAgreement cross-checks CheckSafety against a direct
// restatement of the definition on every subgoal subset of the paper's
// example queries.
func TestSafetyBruteForceAgreement(t *testing.T) {
	rules := []*Rule{
		mustRule(t, basketRule),
		mustRule(t, medicalRule),
		mustRule(t, "answer(X) :- arc($1,X) AND arc(X,Y1) AND arc(Y1,Y2) AND arc(Y2,Y3)"),
	}
	u, err := ParseUnion(webUnion)
	if err != nil {
		t.Fatal(err)
	}
	rules = append(rules, u...)

	for _, r := range rules {
		n := len(r.Body)
		for mask := 0; mask < 1<<n; mask++ {
			var drop []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) == 0 {
					drop = append(drop, i)
				}
			}
			sub := r.DeleteSubgoals(drop...)
			if IsSafe(sub) != bruteForceSafe(sub) {
				t.Errorf("disagreement on %s: IsSafe=%v", sub, IsSafe(sub))
			}
		}
	}
}

// bruteForceSafe restates §3.3 directly.
func bruteForceSafe(r *Rule) bool {
	inPositive := func(t Term) bool {
		for _, a := range r.PositiveAtoms() {
			for _, u := range a.Args {
				if termEqual(t, u) {
					return true
				}
			}
		}
		return false
	}
	needsLimit := func(t Term) bool {
		switch t.(type) {
		case Var, Param:
			return true
		}
		return false
	}
	for _, t := range r.Head.Args {
		if _, isVar := t.(Var); isVar && !inPositive(t) {
			return false
		}
	}
	for _, a := range r.NegatedAtoms() {
		for _, t := range a.Args {
			if needsLimit(t) && !inPositive(t) {
				return false
			}
		}
	}
	for _, c := range r.Comparisons() {
		for _, t := range []Term{c.Left, c.Right} {
			if needsLimit(t) && !inPositive(t) {
				return false
			}
		}
	}
	return true
}

func TestSafetyViolationError(t *testing.T) {
	v := SafetyViolation{Condition: 2, Term: "$s", Subgoal: "NOT causes(D,$s)"}
	msg := v.Error()
	for _, want := range []string{"condition (2)", "$s", "NOT causes(D,$s)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("violation message %q missing %q", msg, want)
		}
	}
}
