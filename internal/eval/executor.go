// Package eval is the query processor of the flock system: it evaluates
// extended conjunctive queries (and unions of them) bottom-up against a
// storage.Database using hash joins, anti-joins for negated subgoals, and
// eager application of arithmetic comparisons.
//
// EvalRule/EvalUnion evaluate a whole query under a join-order strategy;
// by default they compile it to an internal/physical plan and stream it.
// The executor in this file is the materializing reference
// (ExecMaterialize): it joins one atom at a time into a boxed binding
// relation, untraced.
package eval

import (
	"fmt"

	"queryflocks/internal/datalog"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// termColumn returns the intermediate-relation column name for a term.
// Variables map to their own name; parameters are prefixed with '$', which
// cannot collide with a variable name.
func termColumn(t datalog.Term) (string, bool) {
	switch x := t.(type) {
	case datalog.Var:
		return string(x), true
	case datalog.Param:
		return "$" + string(x), true
	default:
		return "", false
	}
}

// executor evaluates one rule's body subgoal-by-subgoal. The current state
// is a binding relation whose columns are the variables and parameters
// bound so far. Negated subgoals and comparisons are applied automatically
// as soon as all their terms are bound ("pushed down"); rule safety
// guarantees they all apply by the time every positive atom is joined.
type executor struct {
	db   *storage.Database
	rule *datalog.Rule

	cur        *storage.Relation
	joined     []bool // per positive-atom index
	pendingCmp []*datalog.Comparison
	pendingNeg []*datalog.Atom

	// gate is the cancellation and budget checkpoint, consulted before
	// each join step and each pushed-down subgoal application and fed the
	// simultaneously-live tuple counts; nil is unlimited.
	gate  *physical.Gate
	steps int
}

// newExecutor prepares evaluation of r's body against db. The rule must be
// safe (§3.3) — unsafe rules denote infinite results. Any relation named by
// a body atom must exist in db with matching arity.
func newExecutor(db *storage.Database, r *datalog.Rule, gate *physical.Gate) (*executor, error) {
	if vs := datalog.CheckSafety(r); len(vs) > 0 {
		return nil, fmt.Errorf("eval: rule %s is unsafe: %v", r.Head, vs[0])
	}
	for _, sg := range r.Body {
		a, ok := sg.(*datalog.Atom)
		if !ok {
			continue
		}
		rel, err := db.Relation(a.Pred)
		if err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
		if rel.Arity() != len(a.Args) {
			return nil, fmt.Errorf("eval: atom %s has %d arguments but relation %s has %d columns",
				a, len(a.Args), a.Pred, rel.Arity())
		}
	}
	unit := storage.NewRelation("unit") // the identity for join
	unit.Insert(storage.Tuple{})
	e := &executor{
		db:         db,
		rule:       r,
		cur:        unit,
		joined:     make([]bool, len(r.PositiveAtoms())),
		pendingCmp: r.Comparisons(),
		pendingNeg: r.NegatedAtoms(),
		gate:       gate,
	}
	// Constant-only comparisons (and any already-applicable subgoals)
	// resolve immediately.
	if err := e.applyPending(); err != nil {
		return nil, err
	}
	return e, nil
}

// joinNext joins the i-th positive atom into the current bindings. Pending
// subgoals that become decidable during the scan — comparisons, negations,
// and positive atoms acting as semi-join reducers (every term constant,
// already bound, or bound by this atom) — are absorbed into the scan
// itself, so their filtering applies before the joined rows materialize.
// This is the shape of the paper's Fig. 9 plan, where the reducer
// "templ($s) JOIN exhibits(P,$s)" runs as one operation. Any remaining
// pending subgoal that became fully bound is applied afterwards.
func (e *executor) joinNext(i int) error {
	atoms := e.rule.PositiveAtoms()
	if i < 0 || i >= len(atoms) {
		return fmt.Errorf("eval: positive-atom index %d out of range", i)
	}
	if e.joined[i] {
		return fmt.Errorf("eval: atom %d (%s) already joined", i, atoms[i])
	}
	if err := e.gate.Check(); err != nil {
		return err
	}
	checks, err := e.absorbChecks(atoms[i])
	if err != nil {
		return err
	}
	prevLen := e.cur.Len()
	next, err := joinAtom(e.db, e.cur, atoms[i], e.stepName(), checks)
	if err != nil {
		return err
	}
	e.joined[i] = true
	e.cur = next
	// Relation-at-a-time evaluation keeps the probe-side bindings and the
	// joined result fully materialized at once; that simultaneously-live
	// count feeds the tuple budget.
	e.gate.NoteLive(prevLen + next.Len())
	return e.applyPending()
}

// rowCheck decides one (binding, candidate) row pair during a join scan.
type rowCheck func(ct, bt storage.Tuple) bool

// absorbChecks builds per-row checks for every pending subgoal decidable
// during the scan of atom, removing the absorbed subgoals from the pending
// lists and marking absorbed positive atoms as joined.
func (e *executor) absorbChecks(atom *datalog.Atom) ([]rowCheck, error) {
	curCols := make(map[string]int, e.cur.Arity())
	for i, c := range e.cur.Columns() {
		curCols[c] = i
	}
	atomPos := make(map[string]int, len(atom.Args))
	for i, t := range atom.Args {
		if col, ok := termColumn(t); ok {
			if _, dup := atomPos[col]; !dup {
				atomPos[col] = i
			}
		}
	}
	// getter resolves a term's value per scanned row pair, or fails if the
	// term is not determined by (cur, atom).
	getter := func(t datalog.Term) (func(ct, bt storage.Tuple) storage.Value, bool) {
		if c, isConst := t.(datalog.Const); isConst {
			v := c.Val
			return func(storage.Tuple, storage.Tuple) storage.Value { return v }, true
		}
		col, _ := termColumn(t)
		if p, ok := curCols[col]; ok {
			return func(ct, _ storage.Tuple) storage.Value { return ct[p] }, true
		}
		if p, ok := atomPos[col]; ok {
			return func(_, bt storage.Tuple) storage.Value { return bt[p] }, true
		}
		return nil, false
	}
	getters := func(terms []datalog.Term) ([]func(ct, bt storage.Tuple) storage.Value, bool) {
		out := make([]func(ct, bt storage.Tuple) storage.Value, len(terms))
		for i, t := range terms {
			g, ok := getter(t)
			if !ok {
				return nil, false
			}
			out[i] = g
		}
		return out, true
	}

	var checks []rowCheck

	var keepCmp []*datalog.Comparison
	for _, c := range e.pendingCmp {
		gs, ok := getters([]datalog.Term{c.Left, c.Right})
		if !ok {
			keepCmp = append(keepCmp, c)
			continue
		}
		op := c.Op
		checks = append(checks, func(ct, bt storage.Tuple) bool {
			return op.Eval(gs[0](ct, bt), gs[1](ct, bt))
		})
	}
	e.pendingCmp = keepCmp

	var keepNeg []*datalog.Atom
	for _, a := range e.pendingNeg {
		gs, ok := getters(a.Args)
		if !ok {
			keepNeg = append(keepNeg, a)
			continue
		}
		rel, err := e.db.Relation(a.Pred)
		if err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
		if rel.Arity() != len(a.Args) {
			return nil, fmt.Errorf("eval: atom %s arity %d vs relation arity %d", a, len(a.Args), rel.Arity())
		}
		checks = append(checks, membershipCheck(rel, gs, false))
	}
	e.pendingNeg = keepNeg

	// Positive atoms whose every term is determined act as semi-joins.
	atoms := e.rule.PositiveAtoms()
	for j, a := range atoms {
		if e.joined[j] || a == atom {
			continue
		}
		gs, ok := getters(a.Args)
		if !ok {
			continue
		}
		rel, err := e.db.Relation(a.Pred)
		if err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
		if rel.Arity() != len(a.Args) {
			return nil, fmt.Errorf("eval: atom %s arity %d vs relation arity %d", a, len(a.Args), rel.Arity())
		}
		checks = append(checks, membershipCheck(rel, gs, true))
		e.joined[j] = true
	}
	return checks, nil
}

// membershipCheck builds a rowCheck testing (non-)membership of the
// resolved tuple in rel. It owns the probe tuple it resolves into.
func membershipCheck(rel *storage.Relation, gs []func(ct, bt storage.Tuple) storage.Value, want bool) rowCheck {
	probe := make(storage.Tuple, len(gs))
	return func(ct, bt storage.Tuple) bool {
		for i, g := range gs {
			probe[i] = g(ct, bt)
		}
		return rel.Contains(probe) == want
	}
}

func (e *executor) stepName() string {
	e.steps++
	return fmt.Sprintf("bind%d", e.steps)
}

// applyPending applies comparisons and negations whose terms are all bound.
func (e *executor) applyPending() error {
	bound := make(map[string]int, e.cur.Arity())
	for i, c := range e.cur.Columns() {
		bound[c] = i
	}
	isBound := func(t datalog.Term) bool {
		if _, isConst := t.(datalog.Const); isConst {
			return true
		}
		col, _ := termColumn(t)
		_, ok := bound[col]
		return ok
	}

	var keepCmp []*datalog.Comparison
	for _, c := range e.pendingCmp {
		if !isBound(c.Left) || !isBound(c.Right) {
			keepCmp = append(keepCmp, c)
			continue
		}
		if err := e.gate.Check(); err != nil {
			return err
		}
		prevLen := e.cur.Len()
		e.cur = applyComparison(e.cur, c, e.stepName())
		e.gate.NoteLive(prevLen + e.cur.Len())
	}
	e.pendingCmp = keepCmp

	var keepNeg []*datalog.Atom
	for _, a := range e.pendingNeg {
		all := true
		for _, t := range a.Args {
			if !isBound(t) {
				all = false
				break
			}
		}
		if !all {
			keepNeg = append(keepNeg, a)
			continue
		}
		if err := e.gate.Check(); err != nil {
			return err
		}
		prevLen := e.cur.Len()
		next, err := antiJoin(e.db, e.cur, a, e.stepName())
		if err != nil {
			return err
		}
		e.cur = next
		e.gate.NoteLive(prevLen + e.cur.Len())
	}
	e.pendingNeg = keepNeg
	return nil
}

// finish verifies every subgoal was applied and projects the final binding
// relation onto the given output terms. Output columns are named after the
// terms (see termColumn); constant terms are not allowed here.
func (e *executor) finish(out []datalog.Term) (*storage.Relation, error) {
	for i, done := range e.joined {
		if !done {
			return nil, fmt.Errorf("eval: positive atom %d not yet joined", i)
		}
	}
	if len(e.pendingCmp) > 0 || len(e.pendingNeg) > 0 {
		// Unreachable for safe rules; guard for internal consistency.
		return nil, fmt.Errorf("eval: %d comparisons and %d negations never became applicable",
			len(e.pendingCmp), len(e.pendingNeg))
	}
	if err := e.gate.Check(); err != nil {
		return nil, err
	}
	res, err := projectTerms(e.cur, out, "answer")
	if err == nil {
		// The final binding relation and its projection are live together.
		e.gate.NoteLive(e.cur.Len() + res.Len())
		if berr := e.gate.Check(); berr != nil {
			return nil, berr
		}
	}
	return res, err
}

// projectTerms projects a binding relation onto the given variable or
// parameter terms, deduplicating. Column names follow termColumn.
func projectTerms(rel *storage.Relation, out []datalog.Term, name string) (*storage.Relation, error) {
	cols := make([]string, len(out))
	pos := make([]int, len(out))
	for i, t := range out {
		col, ok := termColumn(t)
		if !ok {
			return nil, fmt.Errorf("eval: cannot project constant term %s", t)
		}
		p := rel.ColumnIndex(col)
		if p < 0 {
			return nil, fmt.Errorf("eval: term %s is not bound (columns %v)", t, rel.Columns())
		}
		cols[i] = col
		pos[i] = p
	}
	res := storage.NewRelation(name, cols...)
	for _, t := range rel.Tuples() {
		res.Insert(t.Project(pos))
	}
	return res, nil
}

// joinAtom hash-joins the current bindings with the atom's base relation.
// Each surviving (binding, candidate) pair must additionally pass every
// rowCheck (absorbed subgoals) before the joined row materializes.
func joinAtom(db *storage.Database, cur *storage.Relation, atom *datalog.Atom, name string, checks []rowCheck) (*storage.Relation, error) {
	base, err := db.Relation(atom.Pred)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	if base.Arity() != len(atom.Args) {
		return nil, fmt.Errorf("eval: atom %s arity %d vs relation arity %d", atom, len(atom.Args), base.Arity())
	}

	curCols := make(map[string]int, cur.Arity())
	for i, c := range cur.Columns() {
		curCols[c] = i
	}

	// Classify the atom's argument positions.
	type constPos struct {
		pos int
		val storage.Value
	}
	var (
		consts   []constPos // constant argument: part of the probe key
		probeRel []int      // base-relation positions probed from cur
		probeCur []int      // matching cur positions
		newCols  []string   // newly bound columns, in first-occurrence order
		newPos   []int      // base positions supplying them
		dupCheck [][2]int   // base positions that must be equal (repeated new var)
	)
	firstNew := make(map[string]int) // column -> base position of first occurrence
	for i, t := range atom.Args {
		if c, isConst := t.(datalog.Const); isConst {
			consts = append(consts, constPos{i, c.Val})
			continue
		}
		col, _ := termColumn(t)
		if p, bound := curCols[col]; bound {
			probeRel = append(probeRel, i)
			probeCur = append(probeCur, p)
			continue
		}
		if p, seen := firstNew[col]; seen {
			dupCheck = append(dupCheck, [2]int{p, i})
			continue
		}
		firstNew[col] = i
		newCols = append(newCols, col)
		newPos = append(newPos, i)
	}

	// The index covers constants first (fixed key prefix) then probed
	// positions.
	idxCols := make([]int, 0, len(consts)+len(probeRel))
	for _, c := range consts {
		idxCols = append(idxCols, c.pos)
	}
	idxCols = append(idxCols, probeRel...)
	idx := base.Index(idxCols)

	outCols := append(append([]string(nil), cur.Columns()...), newCols...)
	out := storage.NewRelation(name, outCols...)

	// Constants contribute a fixed probe-key prefix, encoded once.
	var prefix []byte
	for _, c := range consts {
		prefix = c.val.AppendKey(prefix)
	}
	buf := append([]byte(nil), prefix...)
	for _, ct := range cur.Tuples() {
		buf = buf[:len(prefix)]
		for _, p := range probeCur {
			buf = ct[p].AppendKey(buf)
		}
	match:
		for _, bt := range idx.LookupBytes(buf) {
			for _, d := range dupCheck {
				if !bt[d[0]].Equal(bt[d[1]]) {
					continue match
				}
			}
			for _, check := range checks {
				if !check(ct, bt) {
					continue match
				}
			}
			row := make(storage.Tuple, 0, len(outCols))
			row = append(row, ct...)
			for _, p := range newPos {
				row = append(row, bt[p])
			}
			out.Insert(row)
		}
	}
	return out, nil
}

// antiJoin removes bindings for which the (fully bound) negated atom holds.
func antiJoin(db *storage.Database, cur *storage.Relation, atom *datalog.Atom, name string) (*storage.Relation, error) {
	base, err := db.Relation(atom.Pred)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	if base.Arity() != len(atom.Args) {
		return nil, fmt.Errorf("eval: atom %s arity %d vs relation arity %d", atom, len(atom.Args), base.Arity())
	}
	curCols := make(map[string]int, cur.Arity())
	for i, c := range cur.Columns() {
		curCols[c] = i
	}
	// Column-offset plan for the membership probe: each atom argument is
	// either a constant or a cur column offset. srcPos[i] < 0 means "use
	// constVal[i]".
	srcPos := make([]int, len(atom.Args))
	constVal := make([]storage.Value, len(atom.Args))
	for i, t := range atom.Args {
		if c, isConst := t.(datalog.Const); isConst {
			srcPos[i] = -1
			constVal[i] = c.Val
			continue
		}
		col, _ := termColumn(t)
		p, bound := curCols[col]
		if !bound {
			return nil, fmt.Errorf("eval: negated atom %s has unbound term %s", atom, t)
		}
		srcPos[i] = p
	}

	out := storage.NewRelation(name, cur.Columns()...)
	probe := make(storage.Tuple, len(srcPos))
	for _, ct := range cur.Tuples() {
		for j, p := range srcPos {
			if p < 0 {
				probe[j] = constVal[j]
			} else {
				probe[j] = ct[p]
			}
		}
		if !base.Contains(probe) {
			out.Insert(ct)
		}
	}
	return out, nil
}

// applyComparison filters bindings by a fully bound comparison.
func applyComparison(cur *storage.Relation, c *datalog.Comparison, name string) *storage.Relation {
	get := func(t datalog.Term) func(storage.Tuple) storage.Value {
		if cv, isConst := t.(datalog.Const); isConst {
			v := cv.Val
			return func(storage.Tuple) storage.Value { return v }
		}
		col, _ := termColumn(t)
		p := cur.ColumnIndex(col)
		return func(ct storage.Tuple) storage.Value { return ct[p] }
	}
	left, right := get(c.Left), get(c.Right)
	out := storage.NewRelation(name, cur.Columns()...)
	for _, ct := range cur.Tuples() {
		if c.Op.Eval(left(ct), right(ct)) {
			out.Insert(ct)
		}
	}
	return out
}
