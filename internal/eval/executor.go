// Package eval is the query processor of the flock system: it evaluates
// extended conjunctive queries (and unions of them) bottom-up against a
// storage.Database using hash joins, anti-joins for negated subgoals, and
// eager application of arithmetic comparisons.
//
// The package exposes two levels. EvalRule/EvalUnion evaluate a whole query
// under a join-order strategy. Executor exposes the individual join steps,
// which the dynamic strategy of §4.4 needs: it interleaves joins with
// "should we filter now?" decisions based on the sizes of intermediate
// relations, so it must see each intermediate result as it is produced.
package eval

import (
	"fmt"
	"time"

	"queryflocks/internal/datalog"
	"queryflocks/internal/obs"
	"queryflocks/internal/par"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// minParallelRows is the binding-relation size below which join operators
// stay sequential even when more workers are available: under a few
// hundred probe rows, goroutine startup and per-worker state dominate any
// scan overlap.
const minParallelRows = 256

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

// Executor evaluates one rule's body subgoal-by-subgoal. The current state
// is a binding relation whose columns are the variables and parameters
// bound so far. Negated subgoals and comparisons are applied automatically
// as soon as all their terms are bound ("pushed down"); rule safety
// guarantees they all apply by the time every positive atom is joined.
type Executor struct {
	db   *storage.Database
	rule *datalog.Rule

	cur        *storage.Relation
	joined     []bool // per positive-atom index
	pendingCmp []*datalog.Comparison
	pendingNeg []*datalog.Atom

	workers int            // join/anti-join worker count; see SetWorkers
	col     *obs.Collector // typed event sink; nil when not tracing
	gate    *physical.Gate // cancellation/budget checkpoint; nil when unlimited
	steps   int
}

// SetWorkers sets the worker count for the partitioned hash-join and
// anti-join operators: 0 (the default) means one worker per CPU, 1 forces
// the sequential paths, larger values are used as given. Results are
// identical for every worker count; only the wall-clock changes.
func (e *Executor) SetWorkers(n int) { e.workers = n }

// SetGate installs the evaluation's cancellation and budget checkpoint.
// The executor consults it at relation boundaries — before each join
// step and each pushed-down subgoal application — and feeds the
// simultaneously-live tuple counts into its tuple budget, mirroring the
// streaming executor's batch-boundary checks. A nil gate is unlimited.
func (e *Executor) SetGate(g *physical.Gate) { e.gate = g }

// NewExecutor prepares evaluation of r's body against db. The rule must be
// safe (§3.3) — unsafe rules denote infinite results. Any relation named by
// a body atom must exist in db with matching arity.
func NewExecutor(db *storage.Database, r *datalog.Rule, trace *Trace) (*Executor, error) {
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
	e := &Executor{
		db:         db,
		rule:       r,
		cur:        unitRelation(),
		joined:     make([]bool, len(r.PositiveAtoms())),
		pendingCmp: r.Comparisons(),
		pendingNeg: r.NegatedAtoms(),
		col:        trace.Collector(),
	}
	// Constant-only comparisons (and any already-applicable subgoals)
	// resolve immediately.
	if err := e.applyPending(); err != nil {
		return nil, err
	}
	return e, nil
}

// unitRelation is the zero-column relation holding the single empty tuple —
// the identity for join.
func unitRelation() *storage.Relation {
	r := storage.NewRelation("unit")
	r.Insert(storage.Tuple{})
	return r
}

// Current returns the current binding relation. Callers must not mutate it.
func (e *Executor) Current() *storage.Relation { return e.cur }

// ReplaceCurrent substitutes a reduced binding relation (same columns) for
// the current one. The dynamic strategy uses this after a FILTER reduction.
func (e *Executor) ReplaceCurrent(rel *storage.Relation) error {
	if got, want := rel.Columns(), e.cur.Columns(); len(got) != len(want) {
		return fmt.Errorf("eval: ReplaceCurrent with %d columns, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("eval: ReplaceCurrent column %d is %q, want %q", i, got[i], want[i])
			}
		}
	}
	e.cur = rel
	return nil
}

// Remaining returns the indices of positive atoms not yet joined, in body
// order of the positive-atom list.
func (e *Executor) Remaining() []int {
	var out []int
	for i, done := range e.joined {
		if !done {
			out = append(out, i)
		}
	}
	return out
}

// Joined reports whether the i-th positive atom has been joined (directly
// or by absorption into another atom's scan).
func (e *Executor) Joined(i int) bool { return e.joined[i] }

// Done reports whether every positive atom has been joined.
func (e *Executor) Done() bool { return len(e.Remaining()) == 0 }

// JoinNext joins the i-th positive atom into the current bindings. Pending
// subgoals that become decidable during the scan — comparisons, negations,
// and positive atoms acting as semi-join reducers (every term constant,
// already bound, or bound by this atom) — are absorbed into the scan
// itself, so their filtering applies before the joined rows materialize.
// This is the shape of the paper's Fig. 9 plan, where the reducer
// "templ($s) JOIN exhibits(P,$s)" runs as one operation. Any remaining
// pending subgoal that became fully bound is applied afterwards.
func (e *Executor) JoinNext(i int) error {
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
	checks, absorbed, err := e.absorbChecks(atoms[i])
	if err != nil {
		return err
	}
	prevLen := e.cur.Len()
	var start time.Time
	if e.col != nil { // skip timing work entirely when not tracing
		start = time.Now()
	}
	next, used, err := joinAtom(e.db, e.cur, atoms[i], e.stepName(), checks, e.workers)
	if err != nil {
		return err
	}
	e.joined[i] = true
	e.cur = next
	// Relation-at-a-time evaluation keeps the probe-side bindings and the
	// joined result fully materialized at once; that simultaneously-live
	// count feeds both the peak gauge and the tuple budget, mirroring the
	// streaming executor's buffered-tuple gauge.
	e.gate.NoteLive(prevLen + next.Len())
	if e.col != nil {
		e.col.Record(obs.Event{
			Op:       obs.OpJoin,
			Desc:     atoms[i].String(),
			RowsIn:   prevLen,
			RowsOut:  next.Len(),
			Absorbed: absorbed,
			Workers:  used,
			Wall:     time.Since(start),
		})
		e.col.ObservePeak(prevLen + next.Len())
	}
	return e.applyPending()
}

// rowCheck decides one (binding, candidate) row pair during a join scan.
type rowCheck func(ct, bt storage.Tuple) bool

// rowCheckFactory instantiates a rowCheck. Factories exist because some
// checks carry reusable probe buffers: each worker of a partitioned scan
// instantiates its own copies so no mutable state is shared across
// goroutines. Stateless checks return the same closure every time.
type rowCheckFactory func() rowCheck

// instantiateChecks materializes one worker's private check set.
func instantiateChecks(fs []rowCheckFactory) []rowCheck {
	if len(fs) == 0 {
		return nil
	}
	out := make([]rowCheck, len(fs))
	for i, f := range fs {
		out[i] = f()
	}
	return out
}

// absorbChecks builds per-row checks for every pending subgoal decidable
// during the scan of atom, removing the absorbed subgoals from the pending
// lists and marking absorbed positive atoms as joined.
func (e *Executor) absorbChecks(atom *datalog.Atom) ([]rowCheckFactory, int, error) {
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

	var checks []rowCheckFactory

	var keepCmp []*datalog.Comparison
	for _, c := range e.pendingCmp {
		gs, ok := getters([]datalog.Term{c.Left, c.Right})
		if !ok {
			keepCmp = append(keepCmp, c)
			continue
		}
		op := c.Op
		// Comparison checks are stateless; every worker shares one closure.
		cmp := func(ct, bt storage.Tuple) bool {
			return op.Eval(gs[0](ct, bt), gs[1](ct, bt))
		}
		checks = append(checks, func() rowCheck { return cmp })
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
			return nil, 0, fmt.Errorf("eval: %w", err)
		}
		if rel.Arity() != len(a.Args) {
			return nil, 0, fmt.Errorf("eval: atom %s arity %d vs relation arity %d", a, len(a.Args), rel.Arity())
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
			return nil, 0, fmt.Errorf("eval: %w", err)
		}
		if rel.Arity() != len(a.Args) {
			return nil, 0, fmt.Errorf("eval: atom %s arity %d vs relation arity %d", a, len(a.Args), rel.Arity())
		}
		checks = append(checks, membershipCheck(rel, gs, true))
		e.joined[j] = true
	}
	return checks, len(checks), nil
}

// membershipCheck builds a rowCheck factory testing (non-)membership of
// the resolved tuple in rel. Each instantiation owns a private probe tuple
// and key buffer, so workers never contend, and the membership test
// encodes into the reused buffer instead of allocating a key string per
// probed row.
func membershipCheck(rel *storage.Relation, gs []func(ct, bt storage.Tuple) storage.Value, want bool) rowCheckFactory {
	return func() rowCheck {
		probe := make(storage.Tuple, len(gs))
		var buf []byte
		return func(ct, bt storage.Tuple) bool {
			for i, g := range gs {
				probe[i] = g(ct, bt)
			}
			buf = probe.AppendKey(buf[:0])
			return rel.ContainsKey(buf) == want
		}
	}
}

func (e *Executor) stepName() string {
	e.steps++
	return fmt.Sprintf("bind%d", e.steps)
}

// applyPending applies comparisons and negations whose terms are all bound.
func (e *Executor) applyPending() error {
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
		var start time.Time
		if e.col != nil { // skip timing work entirely when not tracing
			start = time.Now()
		}
		e.cur = applyComparison(e.cur, c, e.stepName())
		e.gate.NoteLive(prevLen + e.cur.Len())
		if e.col != nil {
			e.col.Record(obs.Event{
				Op:      obs.OpSelect,
				Desc:    c.String(),
				RowsIn:  prevLen,
				RowsOut: e.cur.Len(),
				Wall:    time.Since(start),
			})
		}
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
		var start time.Time
		if e.col != nil {
			start = time.Now()
		}
		next, used, err := antiJoin(e.db, e.cur, a, e.stepName(), e.workers)
		if err != nil {
			return err
		}
		e.cur = next
		e.gate.NoteLive(prevLen + e.cur.Len())
		if e.col != nil {
			e.col.Record(obs.Event{
				Op:      obs.OpAntiJoin,
				Desc:    a.String(),
				RowsIn:  prevLen,
				RowsOut: e.cur.Len(),
				Workers: used,
				Wall:    time.Since(start),
			})
		}
	}
	e.pendingNeg = keepNeg
	return nil
}

// Finish verifies every subgoal was applied and projects the final binding
// relation onto the given output terms. Output columns are named after the
// terms (see termColumn); constant terms are not allowed here.
func (e *Executor) Finish(out []datalog.Term) (*storage.Relation, error) {
	if !e.Done() {
		return nil, fmt.Errorf("eval: %d positive atoms not yet joined", len(e.Remaining()))
	}
	if len(e.pendingCmp) > 0 || len(e.pendingNeg) > 0 {
		// Unreachable for safe rules; guard for internal consistency.
		return nil, fmt.Errorf("eval: %d comparisons and %d negations never became applicable",
			len(e.pendingCmp), len(e.pendingNeg))
	}
	if err := e.gate.Check(); err != nil {
		return nil, err
	}
	res, err := ProjectTerms(e.cur, out, "answer")
	if err == nil {
		// The final binding relation and its projection are live together.
		e.gate.NoteLive(e.cur.Len() + res.Len())
		if e.col != nil {
			e.col.ObservePeak(e.cur.Len() + res.Len())
		}
		if berr := e.gate.Check(); berr != nil {
			return nil, berr
		}
	}
	return res, err
}

// ProjectTerms projects a binding relation onto the given variable or
// parameter terms, deduplicating. Column names follow termColumn.
func ProjectTerms(rel *storage.Relation, out []datalog.Term, name string) (*storage.Relation, error) {
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
//
// With workers > 1 (and enough binding rows), the probe side is range-
// partitioned: each worker probes its contiguous chunk of cur into its own
// storage.Builder with its own instantiated checks and probe-key buffer,
// and the builders are merged in worker order afterwards. Because every
// output row embeds its distinct binding tuple, two workers can never
// produce the same row, and the worker-order merge reproduces exactly the
// sequential insertion order.
// It additionally reports the worker count the scan actually ran with.
func joinAtom(db *storage.Database, cur *storage.Relation, atom *datalog.Atom, name string, checks []rowCheckFactory, workers int) (*storage.Relation, int, error) {
	base, err := db.Relation(atom.Pred)
	if err != nil {
		return nil, 0, fmt.Errorf("eval: %w", err)
	}
	if base.Arity() != len(atom.Args) {
		return nil, 0, fmt.Errorf("eval: atom %s arity %d vs relation arity %d", atom, len(atom.Args), base.Arity())
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

	workers = par.Resolve(workers)
	if cur.Len() < minParallelRows {
		workers = 1
	}

	// The index covers constants first (fixed key prefix) then probed
	// positions.
	idxCols := make([]int, 0, len(consts)+len(probeRel))
	for _, c := range consts {
		idxCols = append(idxCols, c.pos)
	}
	idxCols = append(idxCols, probeRel...)
	idx := base.IndexParallel(idxCols, workers)

	outCols := append(append([]string(nil), cur.Columns()...), newCols...)
	out := storage.NewRelation(name, outCols...)

	// Constants contribute a fixed probe-key prefix, encoded once.
	var prefix []byte
	for _, c := range consts {
		prefix = c.val.AppendKey(prefix)
	}
	curTuples := cur.Tuples()

	// scan probes the binding tuples in [lo, hi) and emits surviving rows.
	// Each caller supplies private checks and receives a private key buffer,
	// so concurrent scans share only read-only state.
	scan := func(lo, hi int, cks []rowCheck, emit func(storage.Tuple)) {
		buf := append([]byte(nil), prefix...)
		for i := lo; i < hi; i++ {
			ct := curTuples[i]
			buf = buf[:len(prefix)]
			for _, p := range probeCur {
				buf = ct[p].AppendKey(buf)
			}
			matches := idx.LookupBytes(buf)
		match:
			for _, bt := range matches {
				for _, d := range dupCheck {
					if !bt[d[0]].Equal(bt[d[1]]) {
						continue match
					}
				}
				for _, check := range cks {
					if !check(ct, bt) {
						continue match
					}
				}
				row := make(storage.Tuple, 0, len(outCols))
				row = append(row, ct...)
				for _, p := range newPos {
					row = append(row, bt[p])
				}
				emit(row)
			}
		}
	}

	if workers <= 1 {
		scan(0, len(curTuples), instantiateChecks(checks), func(row storage.Tuple) { out.Insert(row) })
		return out, 1, nil
	}

	builders := make([]*storage.Builder, par.Chunks(len(curTuples), workers))
	par.Run(len(curTuples), workers, func(w, lo, hi int) {
		b := storage.NewBuilder(hi - lo)
		scan(lo, hi, instantiateChecks(checks), func(row storage.Tuple) { b.Add(row) })
		builders[w] = b
	})
	for _, b := range builders {
		out.AbsorbBuilder(b)
	}
	return out, workers, nil
}

// antiJoin removes bindings for which the (fully bound) negated atom holds.
// Like joinAtom, with workers > 1 the binding relation is range-partitioned
// into per-worker Builders merged in worker order; surviving rows are the
// (distinct) binding tuples themselves, so partitions cannot collide and
// the merged order equals the sequential one. It additionally reports the
// worker count the scan actually ran with.
func antiJoin(db *storage.Database, cur *storage.Relation, atom *datalog.Atom, name string, workers int) (*storage.Relation, int, error) {
	base, err := db.Relation(atom.Pred)
	if err != nil {
		return nil, 0, fmt.Errorf("eval: %w", err)
	}
	if base.Arity() != len(atom.Args) {
		return nil, 0, fmt.Errorf("eval: atom %s arity %d vs relation arity %d", atom, len(atom.Args), base.Arity())
	}
	curCols := make(map[string]int, cur.Arity())
	for i, c := range cur.Columns() {
		curCols[c] = i
	}
	// Column-offset plan for the membership probe: each atom argument is
	// either a constant (encoded once into the key prefix position) or a cur
	// column offset. srcPos[i] < 0 means "use constVal[i]".
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
			return nil, 0, fmt.Errorf("eval: negated atom %s has unbound term %s", atom, t)
		}
		srcPos[i] = p
	}

	workers = par.Resolve(workers)
	if cur.Len() < minParallelRows {
		workers = 1
	}

	out := storage.NewRelation(name, cur.Columns()...)
	curTuples := cur.Tuples()
	scan := func(lo, hi int, emit func(storage.Tuple)) {
		var buf []byte
		for i := lo; i < hi; i++ {
			ct := curTuples[i]
			buf = buf[:0]
			for j, p := range srcPos {
				if p < 0 {
					buf = constVal[j].AppendKey(buf)
				} else {
					buf = ct[p].AppendKey(buf)
				}
			}
			if !base.ContainsKey(buf) {
				emit(ct)
			}
		}
	}

	if workers <= 1 {
		scan(0, len(curTuples), func(ct storage.Tuple) { out.Insert(ct) })
		return out, 1, nil
	}

	builders := make([]*storage.Builder, par.Chunks(len(curTuples), workers))
	par.Run(len(curTuples), workers, func(w, lo, hi int) {
		b := storage.NewBuilder(hi - lo)
		scan(lo, hi, func(ct storage.Tuple) { b.Add(ct) })
		builders[w] = b
	})
	for _, b := range builders {
		out.AbsorbBuilder(b)
	}
	return out, workers, nil
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
