package physical

import (
	"cmp"
	"fmt"
	"time"

	"queryflocks/internal/datalog"
	"queryflocks/internal/obs"
	"queryflocks/internal/storage"
)

// This file is the streaming executor: the operator tree executed over
// batches of interned uint32 value IDs. Every probe, dedup, and group key
// works on IDs (dictionary IDs are equal exactly when the values are
// Equal, so an ID comparison decides what an AppendKey byte comparison
// decides in the materializing executor); boxed Values appear only at
// the materialize sink and inside comparison/aggregate arithmetic. Base
// relations are read through storage.RelationSource's ID-space access
// paths, so the memory and disk engines run the same operators. The
// answers are bit-identical to the materializing executor's — same
// tuples, same order — which is what makes it the differential oracle.

// colBatch is one batch of bindings in columnar interned form: cols[j][i]
// is the dictionary ID of row i's j-th column. n is explicit because a
// batch can have zero columns (unit streams, all-constant scans) while
// still carrying rows.
type colBatch struct {
	n    int
	cols [][]uint32
}

// newColBatch returns an empty batch with the given column count.
func newColBatch(width int) colBatch {
	return colBatch{cols: make([][]uint32, width)}
}

// reset empties b, keeping its columns' capacity for the next fill.
func (b *colBatch) reset() {
	b.n = 0
	for c := range b.cols {
		b.cols[c] = b.cols[c][:0]
	}
}

// appendRow copies row i of src onto the end of b (same width).
func (b *colBatch) appendRow(src colBatch, i int) {
	for c := range src.cols {
		b.cols[c] = append(b.cols[c], src.cols[c][i])
	}
	b.n++
}

// appendIDs appends one row given as its IDs in column order.
func (b *colBatch) appendIDs(row []uint32) {
	for c, id := range row {
		b.cols[c] = append(b.cols[c], id)
	}
	b.n++
}

// gatherRow writes row i's IDs into dst.
func (b colBatch) gatherRow(i int, dst []uint32) {
	for c := range b.cols {
		dst[c] = b.cols[c][i]
	}
}

// decoder decodes IDs through a lock-free DictView snapshot, refreshing
// the snapshot only when it meets an ID interned after it was taken
// (mid-run interning happens only when an operator opens over a relation
// no earlier scan interned).
type decoder struct {
	d    *storage.Dict
	view storage.DictView
}

func newDecoder(d *storage.Dict) *decoder {
	return &decoder{d: d, view: d.View()}
}

func (dc *decoder) value(id uint32) storage.Value {
	if int(id) >= dc.view.Len() {
		dc.view = dc.d.View()
	}
	return dc.view.Value(id)
}

// colValue resolves a check argument: constants stay boxed, binding and
// base columns decode their ID (the representative is Equal to the
// stored value, so Compare-based verdicts are unchanged).
func (a argRef) colValue(dec *decoder, cur []uint32, baseCols [][]uint32, bt int) storage.Value {
	if a.src == srcConst {
		return a.val
	}
	return dec.value(a.colID(cur, baseCols, bt))
}

// colID resolves a binding or base column argument to its ID.
func (a argRef) colID(cur []uint32, baseCols [][]uint32, bt int) uint32 {
	if a.src == srcCur {
		return cur[a.pos]
	}
	return baseCols[a.pos][bt]
}

// idCompare decides a comparison between two column operands on their
// IDs. Below the dictionary's order-exact length, read once when the
// operator opens, ID order is Value.Compare order and the verdict is an
// integer comparison; an ID interned after the build (a mutation's row,
// a value the build never saw) is decoded and compared by value.
type idCompare struct {
	op    datalog.CmpOp
	exact uint32
	dec   *decoder
}

func newIDCompare(op datalog.CmpOp, dict *storage.Dict) idCompare {
	return idCompare{op: op, exact: dict.OrderExactLen(), dec: newDecoder(dict)}
}

func (c idCompare) holds(a, b uint32) bool {
	if a >= c.exact || b >= c.exact {
		return c.op.Eval(c.dec.value(a), c.dec.value(b))
	}
	return c.op.Accepts(cmp.Compare(a, b))
}

// colCheck is one absorbed check in executable form: cur is the current
// binding row's IDs (nil at a scan, whose checks never reference binding
// columns) and bt the base-relation row index.
type colCheck func(cur []uint32, bt int) bool

// openChecks resolves the checks absorbed into one operator at its open
// against this execution's catalog — the ID set a membership check probes
// and the IDs of its constant arguments — into executable form over the
// operator's base columns. Resolving per execution (not on the shared plan
// node) lets one compiled plan run concurrently against different
// database snapshots.
func openChecks(ctx *Ctx, checks []*Check, baseCols [][]uint32) ([]colCheck, error) {
	if len(checks) == 0 {
		return nil, nil
	}
	out := make([]colCheck, len(checks))
	for i, c := range checks {
		switch c.kind {
		case checkCmp:
			out[i] = compareCheck(c, ctx.dict, baseCols)
		case checkPart:
			out[i] = partCheck(c, ctx.Part, baseCols)
		default:
			src, err := openSource(ctx, c.pred, c.desc, len(c.args))
			if err != nil {
				return nil, err
			}
			set, err := src.IDSet(ctx.dict, ctx.Gate.Check)
			if err != nil {
				return nil, fmt.Errorf("physical: %w", err)
			}
			out[i] = memberCheck(c, ctx.dict, set, baseCols)
		}
	}
	return out, nil
}

// compareCheck is an absorbed comparison: on IDs when both sides are
// columns, on decoded values against a constant.
func compareCheck(c *Check, dict *storage.Dict, baseCols [][]uint32) colCheck {
	l, r := c.left, c.right
	if l.src != srcConst && r.src != srcConst {
		ck := newIDCompare(c.op, dict)
		return func(cur []uint32, bt int) bool {
			return ck.holds(l.colID(cur, baseCols, bt), r.colID(cur, baseCols, bt))
		}
	}
	op, dec := c.op, newDecoder(dict)
	return func(cur []uint32, bt int) bool {
		return op.Eval(l.colValue(dec, cur, baseCols, bt), r.colValue(dec, cur, baseCols, bt))
	}
}

// partCheck keeps the base rows whose column value falls in this run's
// part. A value's part is the high bits of its ID's HashIDs scaled to the
// part count: an ID table places a key by the low bits, so a part's groups
// still spread over every slot of its tables.
func partCheck(c *Check, part int, baseCols [][]uint32) colCheck {
	col, parts := baseCols[c.left.pos], uint64(c.parts)
	return func(_ []uint32, bt int) bool {
		return int(uint64(storage.HashIDs(col[bt:bt+1]))*parts>>32) == part
	}
}

// memberCheck is an absorbed semi-join (or, negated, anti-join) probe of
// set. A constant argument in no stored relation is never a member.
func memberCheck(c *Check, dict *storage.Dict, set *storage.IDTable, baseCols [][]uint32) colCheck {
	want := c.kind == checkMember
	args := c.args
	constIDs := make([]uint32, len(args))
	for j, a := range args {
		if a.src != srcConst {
			continue
		}
		id, ok := dict.Lookup(a.val)
		if !ok {
			return func([]uint32, int) bool { return !want }
		}
		constIDs[j] = id
	}
	probe := make([]uint32, len(args))
	return func(cur []uint32, bt int) bool {
		for i, a := range args {
			switch a.src {
			case srcConst:
				probe[i] = constIDs[i]
			case srcCur:
				probe[i] = cur[a.pos]
			default:
				probe[i] = baseCols[a.pos][bt]
			}
		}
		return (set.Find(probe) >= 0) == want
	}
}

// openSource resolves an atom's base relation at operator open.
func openSource(ctx *Ctx, pred, atom string, arity int) (storage.RelationSource, error) {
	src, err := ctx.DB.Source(pred)
	if err != nil {
		return nil, fmt.Errorf("physical: %w", err)
	}
	if src.Arity() != arity {
		return nil, fmt.Errorf("physical: atom %s arity %d vs relation arity %d", atom, arity, src.Arity())
	}
	return src, nil
}

// lookupConsts returns the dictionary IDs of an atom's constant
// arguments; ok is false when one is absent from the dictionary, i.e.
// matches no stored value.
func lookupConsts(dict *storage.Dict, consts []constPos) (ids []uint32, ok bool) {
	ids = make([]uint32, len(consts))
	ok = true
	for i, c := range consts {
		id, found := dict.Lookup(c.val)
		if !found {
			ok = false
		}
		ids[i] = id
	}
	return ids, ok
}

// sameIDs reports whether base row i satisfies the atom's repeated-
// variable positions. A repeated variable binds one equality class, and
// IDs are exactly those classes (Int(1) and Float(1) share one).
func sameIDs(baseCols [][]uint32, dup [][2]int, i int) bool {
	for _, d := range dup {
		if baseCols[d[0]][i] != baseCols[d[1]][i] {
			return false
		}
	}
	return true
}

// colOperator is one node's runtime state: a pull iterator over ID
// batches. next returns ok=false at end-of-stream; a returned batch may
// be empty while the stream is still live, and is the consumer's only
// until it calls next again: scans, joins and barriers refill the columns
// they returned last, so a consumer copies the rows it keeps. close
// releases state and records the operator's event (children first, so
// events arrive in leaf-to-root pipeline order).
type colOperator interface {
	open(ctx *Ctx) error
	next(ctx *Ctx) (batch colBatch, ok bool, err error)
	close(ctx *Ctx)
}

// newColOp instantiates the runtime state of a node.
func newColOp(p *Plan, n Node) colOperator {
	switch x := n.(type) {
	case *ScanNode:
		return &colScanOp{n: x, id: p.ids[x]}
	case *UnitNode:
		return &colUnitOp{id: p.ids[x]}
	case *ReplayNode:
		return &colReplayOp{n: x, id: p.ids[x]}
	case *JoinNode:
		return &colJoinOp{n: x, id: p.ids[x], buildID: p.ids[x.Input], input: newColOp(p, x.Probe)}
	case *AntiJoinNode:
		return &colAntiJoinOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	case *SelectNode:
		return &colSelectOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	case *ProjectNode:
		return &colProjectOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	case *UnionNode:
		ops := make([]colOperator, len(x.Branches))
		for i, br := range x.Branches {
			ops[i] = newColOp(p, br)
		}
		return &colUnionOp{n: x, id: p.ids[x], branches: ops}
	case *GroupNode:
		return &colGroupOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	case *BarrierNode:
		return &colBarrierOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	case *MaterializeNode:
		return &colMaterializeOp{n: x, id: p.ids[x], input: newColOp(p, x.Probe)}
	default:
		panic(fmt.Sprintf("physical: no operator for %T", n))
	}
}

// --- scan ---

type colScanOp struct {
	n  *ScanNode
	id int

	rows     int
	baseCols [][]uint32
	pos      int
	checks   []colCheck
	constIDs []uint32
	live     bool     // false when a constant is absent from the dictionary
	out      colBatch // the one batch next refills and returns

	rowsOut int
	batches int
	wall    time.Duration
}

func (o *colScanOp) open(ctx *Ctx) error {
	src, err := openSource(ctx, o.n.Pred, o.n.atom, o.n.arity)
	if err != nil {
		return err
	}
	if ctx.Col != nil {
		// The first scan of a relation interns it, and the first use of a
		// check builds its ID set: that time is this operator's.
		start := time.Now()
		defer func() { o.wall += time.Since(start) }()
	}
	if o.baseCols, err = src.InternedColumns(ctx.dict, ctx.Gate.Check); err != nil {
		return fmt.Errorf("physical: %w", err)
	}
	if o.checks, err = openChecks(ctx, o.n.checks, o.baseCols); err != nil {
		return err
	}
	o.rows = src.Len()
	o.constIDs, o.live = lookupConsts(ctx.dict, o.n.consts)
	return nil
}

func (o *colScanOp) next(ctx *Ctx) (colBatch, bool, error) {
	if err := ctx.Gate.Check(); err != nil {
		return colBatch{}, false, err
	}
	if !o.live || o.pos >= o.rows {
		return colBatch{}, false, nil
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	if o.out.cols == nil {
		o.out = newColBatch(len(o.n.newPos))
	}
	out := &o.out
	out.reset()
scan:
	for o.pos < o.rows && out.n < batchSize {
		i := o.pos
		o.pos++
		for k, c := range o.n.consts {
			if o.baseCols[c.pos][i] != o.constIDs[k] {
				continue scan
			}
		}
		if !sameIDs(o.baseCols, o.n.dup, i) {
			continue
		}
		for _, check := range o.checks {
			if !check(nil, i) {
				continue scan
			}
		}
		for j, p := range o.n.newPos {
			out.cols[j] = append(out.cols[j], o.baseCols[p][i])
		}
		out.n++
	}
	o.rowsOut += out.n
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	return *out, true, nil
}

func (o *colScanOp) close(ctx *Ctx) {
	record(ctx, obs.Event{
		Op: obs.OpScan, ID: o.id, Desc: o.n.atom,
		RowsIn: o.rows, RowsOut: o.rowsOut,
		Absorbed: len(o.n.checks), Workers: 1, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- unit ---

type colUnitOp struct {
	id   int
	done bool
}

func (o *colUnitOp) open(*Ctx) error { return nil }

func (o *colUnitOp) next(*Ctx) (colBatch, bool, error) {
	if o.done {
		return colBatch{}, false, nil
	}
	o.done = true
	return colBatch{n: 1}, true, nil
}

func (o *colUnitOp) close(ctx *Ctx) {
	record(ctx, obs.Event{Op: obs.OpScan, ID: o.id, Desc: "unit", RowsIn: 1, RowsOut: 1, Workers: 1, IDBatches: 1})
}

// --- hash join (with its build side) ---

type colJoinOp struct {
	n       *JoinNode
	id      int
	buildID int
	input   colOperator

	buildRows int
	baseCols  [][]uint32
	idx       *storage.IDIndex
	constIDs  []uint32
	live      bool
	checks    []colCheck
	pending   colBatch
	// outCols and selCur/selBase are the probe's output columns and
	// surviving (binding row, base row) pairs, emptied and reused for every
	// input batch: a consumer that asks for the next batch is done with the
	// chunks of the last one.
	outCols         [][]uint32
	selCur, selBase []int32

	buildWall time.Duration
	rowsIn    int
	rowsOut   int
	batches   int
	wall      time.Duration
}

func (o *colJoinOp) open(ctx *Ctx) error {
	if err := o.input.open(ctx); err != nil {
		return err
	}
	src, err := openSource(ctx, o.n.Pred, o.n.atom, o.n.arity)
	if err != nil {
		return err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	if o.baseCols, err = src.InternedColumns(ctx.dict, ctx.Gate.Check); err != nil {
		return fmt.Errorf("physical: %w", err)
	}
	if o.checks, err = openChecks(ctx, o.n.checks, o.baseCols); err != nil {
		return err
	}
	if o.idx, err = src.IDIndex(ctx.dict, o.n.Input.idxCols, ctx.Gate.Check); err != nil {
		return fmt.Errorf("physical: %w", err)
	}
	o.buildRows = src.Len()
	if ctx.Col != nil {
		o.buildWall = time.Since(start)
	}
	o.constIDs, o.live = lookupConsts(ctx.dict, o.n.consts)
	o.outCols = make([][]uint32, len(o.n.cols))
	return nil
}

// probe scans the binding rows of batch against the ID index and emits
// the surviving joined rows: first the surviving row pairs, then the
// output one column at a time over o.outCols, whose capacity it reuses
// and whose contents it overwrites. Output order: binding rows in order,
// matches in base insertion order.
func (o *colJoinOp) probe(batch colBatch) colBatch {
	n, cks := o.n, o.checks
	ids := make([]uint32, len(o.constIDs)+len(n.probeCur))
	copy(ids, o.constIDs)
	var cur []uint32
	if len(cks) > 0 {
		cur = make([]uint32, len(batch.cols))
	}
	selCur, selBase := o.selCur[:0], o.selBase[:0]
	for i := 0; i < batch.n; i++ {
		for k, p := range n.probeCur {
			ids[len(o.constIDs)+k] = batch.cols[p][i]
		}
		matches := o.idx.Lookup(ids)
		if len(matches) == 0 {
			continue
		}
		if cur != nil {
			batch.gatherRow(i, cur)
		}
	match:
		for _, r := range matches {
			if !sameIDs(o.baseCols, n.dup, int(r)) {
				continue
			}
			for _, check := range cks {
				if !check(cur, int(r)) {
					continue match
				}
			}
			selCur = append(selCur, int32(i))
			selBase = append(selBase, r)
		}
	}
	o.selCur, o.selBase = selCur, selBase
	out := colBatch{n: len(selCur), cols: o.outCols}
	width := len(batch.cols)
	for c := range out.cols {
		col := out.cols[c]
		if cap(col) < out.n {
			col = make([]uint32, out.n)
		}
		col = col[:out.n]
		if c < width {
			src := batch.cols[c]
			for k, i := range selCur {
				col[k] = src[i]
			}
		} else {
			src := o.baseCols[n.newPos[c-width]]
			for k, r := range selBase {
				col[k] = src[r]
			}
		}
		out.cols[c] = col
	}
	return out
}

func (o *colJoinOp) next(ctx *Ctx) (colBatch, bool, error) {
	// A join's fan-out can multiply one input batch far past batchSize;
	// emit the probe output in batch-size chunks so downstream operators
	// (and the cancellation checkpoints at every batch boundary) keep
	// their per-call work bounded.
	if o.pending.n > 0 {
		return o.emitChunk(), true, nil
	}
	batch, ok, err := o.input.next(ctx)
	if err != nil || !ok {
		return colBatch{}, false, err
	}
	if err := ctx.Gate.Check(); err != nil {
		return colBatch{}, false, err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	var out colBatch
	if !o.live {
		out = newColBatch(len(o.n.cols))
	} else {
		out = o.probe(batch)
		// The pending batch gets column headers of its own: emitChunk
		// advances them, and outCols must keep the columns whole.
		out.cols = append([][]uint32(nil), out.cols...)
	}
	o.rowsIn += batch.n
	o.rowsOut += out.n
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	o.pending = out
	return o.emitChunk(), true, nil
}

// emitChunk pops the next batch-size chunk of pending probe output,
// preserving emission order exactly.
func (o *colJoinOp) emitChunk() colBatch {
	k := o.pending.n
	if k > batchSize {
		k = batchSize
	}
	chunk := colBatch{n: k, cols: make([][]uint32, len(o.pending.cols))}
	for c := range o.pending.cols {
		chunk.cols[c] = o.pending.cols[c][:k:k]
		o.pending.cols[c] = o.pending.cols[c][k:]
	}
	o.pending.n -= k
	return chunk
}

func (o *colJoinOp) close(ctx *Ctx) {
	o.input.close(ctx)
	record(ctx, obs.Event{
		Op: obs.OpBuild, ID: o.buildID, Desc: o.n.Input.Desc(),
		RowsIn: o.buildRows, RowsOut: o.buildRows, Workers: 1, Wall: o.buildWall,
	})
	record(ctx, obs.Event{
		Op: obs.OpJoin, ID: o.id, Desc: o.n.atom,
		RowsIn: o.rowsIn, RowsOut: o.rowsOut,
		Absorbed: len(o.n.checks), Workers: 1, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- anti-join ---

type colAntiJoinOp struct {
	n     *AntiJoinNode
	id    int
	input colOperator

	set      *storage.IDTable
	constIDs []uint32
	live     bool // false when a constant is absent: nothing ever matches

	rowsIn  int
	rowsOut int
	batches int
	wall    time.Duration
	ids     []uint32 // filter's probe key
}

func (o *colAntiJoinOp) open(ctx *Ctx) error {
	if err := o.input.open(ctx); err != nil {
		return err
	}
	src, err := openSource(ctx, o.n.Pred, o.n.atom, o.n.arity)
	if err != nil {
		return err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	if o.set, err = src.IDSet(ctx.dict, ctx.Gate.Check); err != nil {
		return fmt.Errorf("physical: %w", err)
	}
	if ctx.Col != nil {
		o.wall = time.Since(start)
	}
	o.live = true
	o.ids = make([]uint32, o.n.arity)
	o.constIDs = make([]uint32, len(o.n.srcPos))
	for j, p := range o.n.srcPos {
		if p >= 0 {
			continue
		}
		id, ok := ctx.dict.Lookup(o.n.constVal[j])
		if !ok {
			o.live = false
		}
		o.constIDs[j] = id
	}
	return nil
}

// filter keeps the binding rows of batch whose negated-atom key is NOT in
// the base relation's ID set.
func (o *colAntiJoinOp) filter(batch colBatch) colBatch {
	n, ids := o.n, o.ids
	out := newColBatch(len(batch.cols))
	for i := 0; i < batch.n; i++ {
		if o.live {
			for j, p := range n.srcPos {
				if p < 0 {
					ids[j] = o.constIDs[j]
				} else {
					ids[j] = batch.cols[p][i]
				}
			}
			if o.set.Find(ids) >= 0 {
				continue
			}
		}
		out.appendRow(batch, i)
	}
	return out
}

func (o *colAntiJoinOp) next(ctx *Ctx) (colBatch, bool, error) {
	batch, ok, err := o.input.next(ctx)
	if err != nil || !ok {
		return colBatch{}, false, err
	}
	if err := ctx.Gate.Check(); err != nil {
		return colBatch{}, false, err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	out := o.filter(batch)
	o.rowsIn += batch.n
	o.rowsOut += out.n
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	return out, true, nil
}

func (o *colAntiJoinOp) close(ctx *Ctx) {
	o.input.close(ctx)
	record(ctx, obs.Event{
		Op: obs.OpAntiJoin, ID: o.id, Desc: o.n.atom,
		RowsIn: o.rowsIn, RowsOut: o.rowsOut, Workers: 1, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- select ---

type colSelectOp struct {
	n     *SelectNode
	id    int
	input colOperator

	// cmp decides a select between two binding columns on their IDs; its
	// decoder serves a select against a constant.
	cmp idCompare

	rowsIn  int
	rowsOut int
	batches int
	wall    time.Duration
}

func (o *colSelectOp) open(ctx *Ctx) error {
	o.cmp = newIDCompare(o.n.op, ctx.dict)
	return o.input.open(ctx)
}

// argValue resolves a select argument: constants stay boxed, binding
// columns decode (representatives are Equal to the originals, so the
// Compare-based verdict is the one the stored values would give).
func (o *colSelectOp) argValue(a argRef, batch colBatch, i int) storage.Value {
	if a.src == srcConst {
		return a.val
	}
	return o.cmp.dec.value(batch.cols[a.pos][i])
}

func (o *colSelectOp) next(ctx *Ctx) (colBatch, bool, error) {
	batch, ok, err := o.input.next(ctx)
	if err != nil || !ok {
		return colBatch{}, false, err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	n := o.n
	out := newColBatch(len(batch.cols))
	if n.left.src == srcCur && n.right.src == srcCur {
		l, r := batch.cols[n.left.pos], batch.cols[n.right.pos]
		for i := 0; i < batch.n; i++ {
			if o.cmp.holds(l[i], r[i]) {
				out.appendRow(batch, i)
			}
		}
	} else {
		for i := 0; i < batch.n; i++ {
			if n.op.Eval(o.argValue(n.left, batch, i), o.argValue(n.right, batch, i)) {
				out.appendRow(batch, i)
			}
		}
	}
	o.rowsIn += batch.n
	o.rowsOut += out.n
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	return out, true, nil
}

func (o *colSelectOp) close(ctx *Ctx) {
	o.input.close(ctx)
	record(ctx, obs.Event{
		Op: obs.OpSelect, ID: o.id, Desc: o.n.desc,
		RowsIn: o.rowsIn, RowsOut: o.rowsOut, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- project ---

type colProjectOp struct {
	n     *ProjectNode
	id    int
	input colOperator

	seen     *storage.IDTable // the dedup state: the distinct projected rows so far
	released bool

	rowsIn  int
	rowsOut int
	batches int
	wall    time.Duration
}

func (o *colProjectOp) open(ctx *Ctx) error {
	if o.n.Dedup {
		o.seen = storage.NewIDTable(len(o.n.pos))
	}
	return o.input.open(ctx)
}

func (o *colProjectOp) next(ctx *Ctx) (colBatch, bool, error) {
	batch, ok, err := o.input.next(ctx)
	if err != nil || !ok {
		// The dedup seen-set dies with the stream; release it from the
		// buffered-tuples gauge.
		if o.seen != nil && !o.released {
			ctx.track(-o.seen.Len())
			o.released = true
		}
		return colBatch{}, false, err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	var out colBatch
	if o.seen == nil {
		// Pure projection: share the input's column slices.
		out = colBatch{n: batch.n, cols: make([][]uint32, len(o.n.pos))}
		for j, p := range o.n.pos {
			out.cols[j] = batch.cols[p]
		}
	} else {
		out = newColBatch(len(o.n.pos))
		for i := 0; i < batch.n; i++ {
			if _, fresh := o.seen.InsertAt(batch.cols, o.n.pos, i); !fresh {
				continue
			}
			ctx.track(1)
			for j, p := range o.n.pos {
				out.cols[j] = append(out.cols[j], batch.cols[p][i])
			}
			out.n++
		}
	}
	o.rowsIn += batch.n
	o.rowsOut += out.n
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	return out, true, nil
}

func (o *colProjectOp) close(ctx *Ctx) {
	o.input.close(ctx)
	record(ctx, obs.Event{
		Op: obs.OpProject, ID: o.id, Desc: o.n.Desc(),
		RowsIn: o.rowsIn, RowsOut: o.rowsOut, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- union ---

type colUnionOp struct {
	n        *UnionNode
	id       int
	branches []colOperator
	cur      int

	rowsOut int
	batches int
}

func (o *colUnionOp) open(ctx *Ctx) error {
	for _, br := range o.branches {
		if err := br.open(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (o *colUnionOp) next(ctx *Ctx) (colBatch, bool, error) {
	for o.cur < len(o.branches) {
		batch, ok, err := o.branches[o.cur].next(ctx)
		if err != nil {
			return colBatch{}, false, err
		}
		if ok {
			o.rowsOut += batch.n
			o.batches++
			return batch, true, nil
		}
		o.cur++
	}
	return colBatch{}, false, nil
}

func (o *colUnionOp) close(ctx *Ctx) {
	for _, br := range o.branches {
		br.close(ctx)
	}
	record(ctx, obs.Event{
		Op: obs.OpUnion, ID: o.id, Desc: o.n.Desc(),
		RowsIn: o.rowsOut, RowsOut: o.rowsOut, IDBatches: o.batches,
	})
}

// --- group-filter ---

type colGroupOp struct {
	n     *GroupNode
	id    int
	input colOperator

	// agg holds the build's result: the groups in first-seen order, each
	// with its aggregate.
	agg      *aggregator
	keepSets bool // an export of a non-additive COUNT-distinct: see aggregator.sets
	// capture, set by Plan.RunCapture, keeps every distinct input row;
	// the build leaves them in captured.
	capture  bool
	captured *IDRows

	built     bool
	exporting bool
	passing   []int32
	emitPos   int

	rowsIn  int
	rowsOut int
	batches int
	wall    time.Duration
}

func (o *colGroupOp) open(ctx *Ctx) error {
	if err := o.input.open(ctx); err != nil {
		return err
	}
	arity := len(o.n.Probe.Columns())
	paramPos := make([]int, o.n.NParams)
	for i := range paramPos {
		paramPos[i] = i
	}
	headPos := make([]int, arity-o.n.NParams)
	for i := range headPos {
		headPos[i] = o.n.NParams + i
	}
	// The upstream projection does not deduplicate, so the aggregator does;
	// a replay's rows are distinct already. Capture keeps the dedup set:
	// it is what capture returns.
	_, replayed := o.n.Probe.(*ReplayNode)
	o.agg = newAggregator(o.n.Agg, paramPos, headPos, ctx.dict, replayed && !o.capture)
	o.agg.acct, o.agg.keepSets, o.agg.capture = ctx, o.keepSets, o.capture
	return nil
}

// build drains the input through the aggregator: one state per parameter
// group, fed the group's distinct head tuples in arrival order.
func (o *colGroupOp) build(ctx *Ctx) error {
	for {
		batch, ok, err := o.input.next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var start time.Time
		if ctx.Col != nil {
			start = time.Now()
		}
		o.agg.add(batch)
		o.rowsIn += batch.n
		o.batches++
		if ctx.Col != nil {
			o.wall += time.Since(start)
		}
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	groups := o.agg.groups.Len()
	if o.exporting {
		o.rowsOut = groups
	} else {
		for g := 0; g < groups; g++ {
			if o.agg.passing(g) {
				o.passing = append(o.passing, int32(g))
			}
		}
		o.rowsOut = len(o.passing)
	}
	if o.capture {
		o.captured = &IDRows{Dict: ctx.dict, N: o.agg.seen.Len(), Cols: o.agg.seen.Columns()}
	}
	// The dedup keys are released here, and the group states with them
	// as far as the budget is concerned: what streams on or is exported
	// is the consumer's to account for.
	ctx.track(-(groups + o.agg.retained))
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	o.built = true
	return nil
}

func (o *colGroupOp) next(ctx *Ctx) (colBatch, bool, error) {
	if !o.built {
		if err := o.build(ctx); err != nil {
			return colBatch{}, false, err
		}
	}
	if o.emitPos >= len(o.passing) {
		return colBatch{}, false, nil
	}
	end := o.emitPos + batchSize
	if end > len(o.passing) {
		end = len(o.passing)
	}
	out := newColBatch(o.n.NParams)
	for _, g := range o.passing[o.emitPos:end] {
		out.appendIDs(o.agg.groups.Row(int(g)))
	}
	o.emitPos = end
	return out, true, nil
}

func (o *colGroupOp) close(ctx *Ctx) {
	o.input.close(ctx)
	desc := o.n.Desc()
	if o.exporting {
		desc += " (export)"
	}
	groups := 0
	if o.agg != nil {
		groups = o.agg.groups.Len()
	}
	record(ctx, obs.Event{
		Op: obs.OpGroup, ID: o.id, Desc: desc,
		RowsIn: o.rowsIn, RowsOut: o.rowsOut,
		Groups: groups, Workers: 1, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- decision barrier ---

// colBarrierOp is the §4.4 decision barrier in ID space. It buffers and
// de-duplicates its input as ID rows — IDs are Equal-classes, so the row
// set is the intermediate relation's tuple set — numbering each row's
// parameter assignment as it goes, asks the policy whether to filter,
// and when told to runs the aggregator over the buffer and re-emits only
// the rows of passing assignments. No value is decoded except the one
// column a SUM, MIN or MAX reads.
type colBarrierOp struct {
	n     *BarrierNode
	id    int
	input colOperator

	rows     *storage.IDTable // the distinct input rows, arrival order
	agg      *aggregator      // its groups are the rows' parameter assignments
	rowGroup []int32          // row e's group
	keep     []bool           // per group, once a filter ran: its rows survive
	kept     int              // rows the barrier re-emits
	done     bool
	emitPos  int
	emit     colBatch // the one batch next refills and returns
	released bool

	rowsIn  int
	batches int
	wall    time.Duration
}

func (o *colBarrierOp) open(ctx *Ctx) error { return o.input.open(ctx) }

// buffer drains the input into the row table and then decides.
func (o *colBarrierOp) buffer(ctx *Ctx) error {
	b := o.n.Spec
	width := len(o.n.cols)
	row := make([]uint32, width)
	// Rows distinct on every column are distinct head tuples of their
	// groups when parameters and head cover the columns — the common
	// case: only an existential variable is neither.
	covered := make(map[int]bool, width)
	for _, p := range b.ParamPos {
		covered[p] = true
	}
	for _, p := range b.HeadPos {
		covered[p] = true
	}
	o.rows = storage.NewIDTable(width)
	o.agg = newAggregator(b.Agg, b.ParamPos, b.HeadPos, ctx.dict, len(covered) == width)
	for {
		batch, ok, err := o.input.next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var start time.Time
		if ctx.Col != nil {
			start = time.Now()
		}
		for i := 0; i < batch.n; i++ {
			batch.gatherRow(i, row)
			if _, fresh := o.rows.Insert(row); !fresh {
				continue
			}
			ctx.track(1)
			o.rowGroup = append(o.rowGroup, o.agg.group(batch, i))
		}
		o.rowsIn += batch.n
		o.batches++
		if ctx.Col != nil {
			o.wall += time.Since(start)
		}
	}
	o.done = true
	return o.decide(ctx)
}

// decide puts the buffered cardinalities to the policy and, on a filter
// verdict, reduces the buffer to the rows of passing assignments.
func (o *colBarrierOp) decide(ctx *Ctx) error {
	// A decision barrier is a boundary between pipeline phases; observe
	// cancellation before the (possibly expensive) reduction.
	if err := ctx.Gate.Check(); err != nil {
		return err
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
		defer func() { o.wall += time.Since(start) }()
	}
	b := o.n.Spec
	rows, assigns := o.rows.Len(), o.agg.groups.Len()
	out := BarrierOutcome{ID: o.id, Rows: rows, Assigns: assigns, RowsAfter: rows, AssignsAfter: assigns}
	o.kept = rows
	if b.Decide(rows, assigns) {
		chunk := newColBatch(len(o.n.cols))
		for lo := 0; lo < rows; lo += batchSize {
			if err := ctx.Gate.Check(); err != nil {
				return err
			}
			hi := o.chunk(&chunk, lo)
			o.agg.fold(chunk, o.rowGroup[lo:hi])
		}
		o.keep = make([]bool, assigns)
		out.Filtered, out.AssignsAfter = true, 0
		for g := range o.keep {
			if o.agg.passing(g) {
				o.keep[g] = true
				out.AssignsAfter++
			}
		}
		o.kept = 0
		for _, g := range o.rowGroup {
			if o.keep[g] {
				o.kept++
			}
		}
		out.RowsAfter = o.kept
		ctx.track(o.kept - rows)
	}
	if ctx.Col != nil {
		out.Wall = time.Since(start)
	}
	b.Record(out)
	return nil
}

// chunk refills dst, in columnar form, with the buffered rows from lo on
// that the barrier still holds — all of them until a reduction sets keep
// — stopping at a full batch. It returns the first row not consumed.
func (o *colBarrierOp) chunk(dst *colBatch, lo int) int {
	dst.reset()
	e := lo
	for ; e < o.rows.Len() && dst.n < batchSize; e++ {
		if o.keep == nil || o.keep[o.rowGroup[e]] {
			dst.appendIDs(o.rows.Row(e))
		}
	}
	return e
}

func (o *colBarrierOp) next(ctx *Ctx) (colBatch, bool, error) {
	if !o.done {
		if err := o.buffer(ctx); err != nil {
			return colBatch{}, false, err
		}
	}
	if o.emitPos >= o.rows.Len() {
		// The buffered relation is no longer referenced once re-streamed.
		if !o.released {
			ctx.track(-o.kept)
			o.released = true
		}
		return colBatch{}, false, nil
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	if o.emit.cols == nil {
		o.emit = newColBatch(len(o.n.cols))
	}
	o.emitPos = o.chunk(&o.emit, o.emitPos)
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	return o.emit, true, nil
}

func (o *colBarrierOp) close(ctx *Ctx) {
	o.input.close(ctx)
	record(ctx, obs.Event{
		Op: obs.OpMaterialize, ID: o.id, Desc: o.n.Desc(),
		RowsIn: o.rowsIn, RowsOut: o.kept, Wall: o.wall,
		IDBatches: o.batches,
	})
}

// --- materialize ---

// colMaterializeOp is the plan's sink: the answer relation, or a FILTER
// step's result published through Register.
type colMaterializeOp struct {
	n     *MaterializeNode
	id    int
	input colOperator

	rel *storage.Relation

	rowsIn  int
	batches int
	wall    time.Duration
}

func (o *colMaterializeOp) open(ctx *Ctx) error { return o.input.open(ctx) }

// materialize drains the input into a fresh relation in the evaluation's
// dictionary, inserting the ID rows as they arrive (set semantics;
// identical to the materializing executor's insertion order) — nothing is
// decoded or re-interned, so a registered step relation is scanned by the
// next step as it is — then runs the Register callback.
func (o *colMaterializeOp) materialize(ctx *Ctx) error {
	rel := storage.NewRelationIn(ctx.dict, o.n.Name, o.n.cols...)
	row := make([]uint32, len(o.n.cols))
	for {
		batch, ok, err := o.input.next(ctx)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var start time.Time
		if ctx.Col != nil {
			start = time.Now()
		}
		for i := 0; i < batch.n; i++ {
			for c := range row {
				row[c] = batch.cols[c][i]
			}
			if rel.InsertIDs(row) {
				ctx.track(1)
			}
		}
		o.rowsIn += batch.n
		o.batches++
		// MaxRows bounds the user-facing answer; a step's gate carries no
		// output cap (Gate.WithoutOutputCap).
		if err := ctx.Gate.CheckOutput(rel.Len()); err != nil {
			return err
		}
		if ctx.Col != nil {
			o.wall += time.Since(start)
		}
	}
	if o.n.Register != nil {
		if err := o.n.Register(rel); err != nil {
			return err
		}
	}
	o.rel = rel
	return nil
}

// next is never reached: a sink is a plan's root, driven by Plan.Run.
func (o *colMaterializeOp) next(*Ctx) (colBatch, bool, error) {
	return colBatch{}, false, fmt.Errorf("physical: materialize %s is a sink, not a stream", o.n.Name)
}

func (o *colMaterializeOp) close(ctx *Ctx) {
	o.input.close(ctx)
	rows := 0
	if o.rel != nil {
		rows = o.rel.Len()
	}
	record(ctx, obs.Event{
		Op: obs.OpMaterialize, ID: o.id, Desc: o.n.Desc(),
		RowsIn: o.rowsIn, RowsOut: rows, Wall: o.wall,
		IDBatches: o.batches,
	})
}
