package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// This file cross-validates the hash-join engine against a brute-force
// evaluator that restates the semantics directly: enumerate every
// assignment of the rule's variables and parameters over the database's
// active domain, check each subgoal, and project. Agreement on randomized
// rules and databases is the package's core correctness property.

// bruteEval evaluates r by active-domain enumeration.
func bruteEval(db *storage.Database, r *datalog.Rule, out []datalog.Term) *storage.Relation {
	// Active domain: every value appearing anywhere in the database.
	domSet := make(map[storage.Value]struct{})
	for _, name := range db.Names() {
		for _, t := range db.MustRelation(name).Tuples() {
			for _, v := range t {
				domSet[v] = struct{}{}
			}
		}
	}
	var dom []storage.Value
	for v := range domSet {
		dom = append(dom, v)
	}

	// Collect unknowns (vars + params).
	var unknowns []datalog.Term
	seen := make(map[string]struct{})
	addTerm := func(t datalog.Term) {
		col, ok := termColumn(t)
		if !ok {
			return
		}
		if _, dup := seen[col]; !dup {
			seen[col] = struct{}{}
			unknowns = append(unknowns, t)
		}
	}
	for _, t := range r.Head.Args {
		addTerm(t)
	}
	for _, sg := range r.Body {
		switch g := sg.(type) {
		case *datalog.Atom:
			for _, t := range g.Args {
				addTerm(t)
			}
		case *datalog.Comparison:
			addTerm(g.Left)
			addTerm(g.Right)
		}
	}

	cols := make([]string, len(out))
	for i, t := range out {
		cols[i], _ = termColumn(t)
	}
	res := storage.NewRelation("brute", cols...)

	assignment := make(map[string]storage.Value)
	valueOf := func(t datalog.Term) storage.Value {
		if c, isConst := t.(datalog.Const); isConst {
			return c.Val
		}
		col, _ := termColumn(t)
		return assignment[col]
	}
	holds := func() bool {
		for _, sg := range r.Body {
			switch g := sg.(type) {
			case *datalog.Atom:
				tuple := make(storage.Tuple, len(g.Args))
				for i, t := range g.Args {
					tuple[i] = valueOf(t)
				}
				rel := db.MustRelation(g.Pred)
				if rel.Contains(tuple) == g.Negated {
					return false
				}
			case *datalog.Comparison:
				if !g.Op.Eval(valueOf(g.Left), valueOf(g.Right)) {
					return false
				}
			}
		}
		return true
	}
	var enumerate func(i int)
	enumerate = func(i int) {
		if i == len(unknowns) {
			if holds() {
				tuple := make(storage.Tuple, len(out))
				for j, t := range out {
					tuple[j] = valueOf(t)
				}
				res.Insert(tuple)
			}
			return
		}
		col, _ := termColumn(unknowns[i])
		for _, v := range dom {
			assignment[col] = v
			enumerate(i + 1)
		}
		delete(assignment, col)
	}
	enumerate(0)
	return res
}

// randomDB builds a small database with relations r/2, s/2, t/1 over a
// 4-value domain.
func randomDB(rng *rand.Rand) *storage.Database {
	db := storage.NewDatabase()
	dom := []storage.Value{storage.Int(0), storage.Int(1), storage.Str("a"), storage.Str("b")}
	mk := func(name string, arity, rows int) {
		cols := make([]string, arity)
		for i := range cols {
			cols[i] = fmt.Sprintf("C%d", i)
		}
		rel := storage.NewRelation(name, cols...)
		for i := 0; i < rows; i++ {
			t := make(storage.Tuple, arity)
			for j := range t {
				t[j] = dom[rng.Intn(len(dom))]
			}
			rel.Insert(t)
		}
		db.Add(rel)
	}
	mk("r", 2, rng.Intn(8))
	mk("s", 2, rng.Intn(8))
	mk("t", 1, rng.Intn(4))
	return db
}

// randomSafeRule builds a random extended CQ and retries until safe.
func randomSafeRule(rng *rand.Rand) *datalog.Rule {
	terms := []datalog.Term{
		datalog.Var("X"), datalog.Var("Y"), datalog.Var("Z"),
		datalog.Param("p"), datalog.Param("q"),
		datalog.CInt(0), datalog.CStr("a"),
	}
	for {
		n := 1 + rng.Intn(4)
		body := make([]datalog.Subgoal, 0, n)
		for i := 0; i < n; i++ {
			switch rng.Intn(5) {
			case 0, 1: // positive binary atom
				pred := []string{"r", "s"}[rng.Intn(2)]
				body = append(body, datalog.NewAtom(pred, terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))]))
			case 2: // positive unary atom
				body = append(body, datalog.NewAtom("t", terms[rng.Intn(len(terms))]))
			case 3: // negated atom
				pred := []string{"r", "s"}[rng.Intn(2)]
				a := datalog.NewAtom(pred, terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))])
				a.Negated = true
				body = append(body, a)
			default: // comparison
				ops := []datalog.CmpOp{datalog.Lt, datalog.Le, datalog.Eq, datalog.Ne, datalog.Gt, datalog.Ge}
				body = append(body, &datalog.Comparison{
					Op:   ops[rng.Intn(len(ops))],
					Left: terms[rng.Intn(len(terms))], Right: terms[rng.Intn(len(terms))],
				})
			}
		}
		// Head: X if bound, else first bound var, else nullary.
		r := datalog.NewRule(datalog.NewAtom("answer", datalog.Var("X")), body...)
		if datalog.IsSafe(r) {
			return r
		}
		r = datalog.NewRule(datalog.NewAtom("answer"), body...)
		if datalog.IsSafe(r) {
			return r
		}
		// retry with a fresh body
	}
}

// outTermsFor projects head args plus any parameters, the shape flocks use.
func outTermsFor(r *datalog.Rule) []datalog.Term {
	out := append([]datalog.Term(nil), r.Head.Args...)
	for _, p := range r.Params() {
		out = append(out, p)
	}
	return out
}

func TestEngineMatchesBruteForce(t *testing.T) {
	const trials = 400
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		db := randomDB(rng)
		r := randomSafeRule(rng)
		out := outTermsFor(r)
		want := bruteEval(db, r, out)
		got, err := EvalRule(db, r, out, nil)
		if err != nil {
			t.Fatalf("trial %d: rule %s: %v", trial, r, err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: rule %s\nengine:\n%s\nbrute force:\n%s\ndb: %s",
				trial, r, got.Dump(), want.Dump(), db)
		}
	}
}
