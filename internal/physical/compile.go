package physical

import (
	"fmt"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// This file is the rule compiler: it statically replays the
// eval.Executor's bottom-up decisions — which pending subgoals are
// absorbed into each scan, which become Select/AntiJoin operators once
// bound, how each atom's argument positions classify into constants,
// probe keys, new columns, and repeated-variable checks — and emits the
// equivalent operator tree. The compiled pipeline therefore produces
// exactly the tuples the executor would, in the same order.

// termCol returns the binding-relation column name for a term:
// variables map to their own name, parameters get a '$' prefix (which
// cannot collide with a variable name).
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

// BarrierFactory decides, per joined atom, whether to insert a decision
// barrier after it: the dynamic strategy (§4.4) returns a non-nil spec at
// pipeline positions where a FILTER decision is legal (parameters bound,
// head columns bound). atomIdx is the positive-atom index just joined;
// cols are the columns bound at that point.
type BarrierFactory func(atomIdx int, atom string, cols []string) *Barrier

// RuleOpts configures rule compilation.
type RuleOpts struct {
	// Order is the join order as positive-atom indices; it must cover
	// every positive atom (absorbed semi-join atoms are skipped).
	Order []int
	// Out projects the final bindings onto these terms.
	Out []datalog.Term
	// Dedup deduplicates the projected output (set semantics).
	Dedup bool
	// Barrier, when non-nil, is consulted after each joined atom (and its
	// pushed-down selections/negations) for a decision barrier.
	Barrier BarrierFactory
}

// CompileRule compiles one safe rule to an operator pipeline ending in a
// Project node. The rule must be safe (§3.3); every body atom's relation
// must exist in db with matching arity (step plans register prior step
// relations before compiling dependent steps).
func CompileRule(db *storage.Database, r *datalog.Rule, opts RuleOpts) (Node, error) {
	if vs := datalog.CheckSafety(r); len(vs) > 0 {
		return nil, fmt.Errorf("physical: rule %s is unsafe: %v", r.Head, vs[0])
	}
	for _, sg := range r.Body {
		a, ok := sg.(*datalog.Atom)
		if !ok {
			continue
		}
		src, err := db.Source(a.Pred)
		if err != nil {
			return nil, fmt.Errorf("physical: %w", err)
		}
		if src.Arity() != len(a.Args) {
			return nil, fmt.Errorf("physical: atom %s has %d arguments but relation %s has %d columns",
				a, len(a.Args), a.Pred, src.Arity())
		}
	}
	atoms := r.PositiveAtoms()
	c := &ruleCompiler{
		db:         db,
		atoms:      atoms,
		colPos:     make(map[string]int),
		joined:     make([]bool, len(atoms)),
		pendingCmp: r.Comparisons(),
		pendingNeg: r.NegatedAtoms(),
	}
	for _, i := range opts.Order {
		if i < 0 || i >= len(atoms) {
			return nil, fmt.Errorf("physical: positive-atom index %d out of range", i)
		}
		if c.joined[i] { // absorbed into an earlier scan as a semi-join
			continue
		}
		if err := c.joinAtom(i); err != nil {
			return nil, err
		}
		if err := c.applyPending(); err != nil {
			return nil, err
		}
		if opts.Barrier != nil {
			if spec := opts.Barrier(i, atoms[i].String(), c.cols); spec != nil {
				c.node = NewBarrier(fmt.Sprintf("bind%d", c.steps), c.node, spec)
			}
		}
	}
	remaining := 0
	for _, done := range c.joined {
		if !done {
			remaining++
		}
	}
	if remaining > 0 {
		return nil, fmt.Errorf("physical: join order covers %d of %d atoms", len(atoms)-remaining, len(atoms))
	}
	if c.node == nil {
		// Ground rule without positive atoms: pending subgoals filter the
		// unit stream.
		c.node = &UnitNode{}
		if err := c.applyPending(); err != nil {
			return nil, err
		}
	}
	if len(c.pendingCmp) > 0 || len(c.pendingNeg) > 0 {
		// Unreachable for safe rules; guard for internal consistency.
		return nil, fmt.Errorf("physical: %d comparisons and %d negations never became applicable",
			len(c.pendingCmp), len(c.pendingNeg))
	}
	return projectOnto(c.node, opts.Out, opts.Dedup)
}

// ruleCompiler tracks the static evaluation state: which columns are
// bound (and where), which atoms are joined, and which subgoals are
// still pending.
type ruleCompiler struct {
	db    *storage.Database
	atoms []*datalog.Atom

	node   Node
	cols   []string
	colPos map[string]int

	joined     []bool
	pendingCmp []*datalog.Comparison
	pendingNeg []*datalog.Atom
	steps      int
}

// setCols replaces the bound-column state after emitting an operator.
func (c *ruleCompiler) setCols(cols []string) {
	c.cols = cols
	c.colPos = make(map[string]int, len(cols))
	for i, col := range cols {
		c.colPos[col] = i
	}
}

// argRefOf resolves a term against (bound columns, atom positions),
// mirroring the executor's absorbChecks getter priority: constant, then
// already-bound column, then a position of the atom being scanned.
func (c *ruleCompiler) argRefOf(t datalog.Term, atomPos map[string]int) (argRef, bool) {
	if cv, isConst := t.(datalog.Const); isConst {
		return argRef{src: srcConst, val: cv.Val}, true
	}
	col, _ := termCol(t)
	if p, ok := c.colPos[col]; ok {
		return argRef{src: srcCur, pos: p}, true
	}
	if atomPos != nil {
		if p, ok := atomPos[col]; ok {
			return argRef{src: srcBase, pos: p}, true
		}
	}
	return argRef{}, false
}

func (c *ruleCompiler) argRefsOf(terms []datalog.Term, atomPos map[string]int) ([]argRef, bool) {
	out := make([]argRef, len(terms))
	for i, t := range terms {
		r, ok := c.argRefOf(t, atomPos)
		if !ok {
			return nil, false
		}
		out[i] = r
	}
	return out, true
}

// absorb collects the checks for every pending subgoal decidable during
// the scan of atom — comparisons, negations, and positive atoms acting
// as semi-join reducers — removing them from the pending lists and
// marking absorbed positive atoms joined (the Fig. 9 reducer shape).
func (c *ruleCompiler) absorb(atom *datalog.Atom) ([]*Check, error) {
	atomPos := make(map[string]int, len(atom.Args))
	for i, t := range atom.Args {
		if col, ok := termCol(t); ok {
			if _, dup := atomPos[col]; !dup {
				atomPos[col] = i
			}
		}
	}

	var checks []*Check

	var keepCmp []*datalog.Comparison
	for _, cm := range c.pendingCmp {
		l, okL := c.argRefOf(cm.Left, atomPos)
		r, okR := c.argRefOf(cm.Right, atomPos)
		if !okL || !okR {
			keepCmp = append(keepCmp, cm)
			continue
		}
		checks = append(checks, &Check{kind: checkCmp, desc: cm.String(), op: cm.Op, left: l, right: r})
	}
	c.pendingCmp = keepCmp

	var keepNeg []*datalog.Atom
	for _, a := range c.pendingNeg {
		refs, ok := c.argRefsOf(a.Args, atomPos)
		if !ok {
			keepNeg = append(keepNeg, a)
			continue
		}
		if err := c.checkArity(a); err != nil {
			return nil, err
		}
		checks = append(checks, &Check{kind: checkAntiMember, desc: a.String(), pred: a.Pred, args: refs})
	}
	c.pendingNeg = keepNeg

	for j, a := range c.atoms {
		if c.joined[j] || a == atom {
			continue
		}
		refs, ok := c.argRefsOf(a.Args, atomPos)
		if !ok {
			continue
		}
		if err := c.checkArity(a); err != nil {
			return nil, err
		}
		checks = append(checks, &Check{kind: checkMember, desc: a.String(), pred: a.Pred, args: refs})
		c.joined[j] = true
	}
	return checks, nil
}

func (c *ruleCompiler) checkArity(a *datalog.Atom) error {
	src, err := c.db.Source(a.Pred)
	if err != nil {
		return fmt.Errorf("physical: %w", err)
	}
	if src.Arity() != len(a.Args) {
		return fmt.Errorf("physical: atom %s arity %d vs relation arity %d", a, len(a.Args), src.Arity())
	}
	return nil
}

// joinAtom emits the Scan (pipeline source) or HashJoin operator for the
// i-th positive atom, classifying its argument positions exactly as the
// executor's joinAtom does.
func (c *ruleCompiler) joinAtom(i int) error {
	atom := c.atoms[i]
	checks, err := c.absorb(atom)
	if err != nil {
		return err
	}
	var (
		consts   []constPos
		probeRel []int
		probeCur []int
		newCols  []string
		newPos   []int
		dup      [][2]int
	)
	firstNew := make(map[string]int)
	for p, t := range atom.Args {
		if cv, isConst := t.(datalog.Const); isConst {
			consts = append(consts, constPos{p, cv.Val})
			continue
		}
		col, _ := termCol(t)
		if cp, bound := c.colPos[col]; bound {
			probeRel = append(probeRel, p)
			probeCur = append(probeCur, cp)
			continue
		}
		if fp, seen := firstNew[col]; seen {
			dup = append(dup, [2]int{fp, p})
			continue
		}
		firstNew[col] = p
		newCols = append(newCols, col)
		newPos = append(newPos, p)
	}
	c.steps++
	if c.node == nil {
		// First atom: the binding side is the unit relation, so the scan
		// reads the base relation directly (insertion order, which equals
		// the hash-bucket order the executor's unit join observes).
		c.node = &ScanNode{
			Pred: atom.Pred, atom: atom.String(), arity: len(atom.Args),
			consts: consts, dup: dup, checks: checks,
			newPos: newPos, cols: append([]string(nil), newCols...),
		}
	} else {
		idxCols := make([]int, 0, len(consts)+len(probeRel))
		for _, cp := range consts {
			idxCols = append(idxCols, cp.pos)
		}
		idxCols = append(idxCols, probeRel...)
		outCols := append(append([]string(nil), c.cols...), newCols...)
		c.node = &JoinNode{
			Input: &BuildNode{Pred: atom.Pred, idxCols: idxCols},
			Probe: c.node,
			Pred:  atom.Pred, atom: atom.String(), arity: len(atom.Args),
			consts: consts, probeCur: probeCur, probeRel: probeRel,
			dup: dup, checks: checks, newPos: newPos, cols: outCols,
		}
	}
	c.setCols(c.node.Columns())
	c.joined[i] = true
	return nil
}

// applyPending emits Select/AntiJoin operators for pending comparisons
// and negations whose terms are all bound.
func (c *ruleCompiler) applyPending() error {
	var keepCmp []*datalog.Comparison
	for _, cm := range c.pendingCmp {
		l, okL := c.argRefOf(cm.Left, nil)
		r, okR := c.argRefOf(cm.Right, nil)
		if !okL || !okR {
			keepCmp = append(keepCmp, cm)
			continue
		}
		c.steps++
		c.node = &SelectNode{Probe: c.node, desc: cm.String(), op: cm.Op, left: l, right: r, cols: c.cols}
	}
	c.pendingCmp = keepCmp

	var keepNeg []*datalog.Atom
	for _, a := range c.pendingNeg {
		srcPos := make([]int, len(a.Args))
		constVal := make([]storage.Value, len(a.Args))
		all := true
		for i, t := range a.Args {
			if cv, isConst := t.(datalog.Const); isConst {
				srcPos[i] = -1
				constVal[i] = cv.Val
				continue
			}
			col, _ := termCol(t)
			p, bound := c.colPos[col]
			if !bound {
				all = false
				break
			}
			srcPos[i] = p
		}
		if !all {
			keepNeg = append(keepNeg, a)
			continue
		}
		if err := c.checkArity(a); err != nil {
			return err
		}
		c.steps++
		c.node = &AntiJoinNode{
			Probe: c.node, Pred: a.Pred, atom: a.String(), arity: len(a.Args),
			srcPos: srcPos, constVal: constVal, cols: c.cols,
		}
	}
	c.pendingNeg = keepNeg
	return nil
}

// projectOnto appends the final projection onto the output terms; column
// names follow termCol, constants are not allowed.
func projectOnto(in Node, out []datalog.Term, dedup bool) (Node, error) {
	inCols := in.Columns()
	colPos := make(map[string]int, len(inCols))
	for i, col := range inCols {
		colPos[col] = i
	}
	cols := make([]string, len(out))
	pos := make([]int, len(out))
	for i, t := range out {
		col, ok := termCol(t)
		if !ok {
			return nil, fmt.Errorf("physical: cannot project constant term %s", t)
		}
		p, bound := colPos[col]
		if !bound {
			return nil, fmt.Errorf("physical: term %s is not bound (columns %v)", t, inCols)
		}
		cols[i] = col
		pos[i] = p
	}
	return &ProjectNode{Probe: in, pos: pos, cols: cols, Dedup: dedup}, nil
}
