package physical

import (
	"fmt"
	"strings"
	"time"

	"queryflocks/internal/obs"
)

// SymJoinNode is a symmetric hash join: both inputs are streams, neither
// has a Build barrier. Each side inserts its rows into its own hash
// table and probes the other side's table as it arrives, so a pair
// (l, r) is emitted exactly once — by whichever row arrived later. The
// join key is the set of column names the two inputs share; the output
// is the left columns followed by the right side's non-key columns
// (matching JoinNode's layout). The pull schedule alternates strictly
// between the sides, one batch at a time, so the emission order is
// deterministic.
//
// The compiler picks this operator when neither input is already
// materialized — the fused FILTER-step pipelines where a producing
// step's stream feeds the consuming step directly (see RuleOpts.Streams).
type SymJoinNode struct {
	Left, Right Node

	leftKey  []int // key column positions in Left, in shared-name order
	rightKey []int // matching key positions in Right
	rightNew []int // non-key positions of Right, appended to the output
	cols     []string
}

// NewSymJoin builds a symmetric hash join of two streams, keyed on the
// column names they share. With no shared columns it degenerates to a
// cross join (one hash bucket).
func NewSymJoin(left, right Node) (*SymJoinNode, error) {
	leftCols, rightCols := left.Columns(), right.Columns()
	leftPos := make(map[string]int, len(leftCols))
	for i, c := range leftCols {
		leftPos[c] = i
	}
	n := &SymJoinNode{Left: left, Right: right}
	n.cols = append(n.cols, leftCols...)
	for j, c := range rightCols {
		if p, shared := leftPos[c]; shared {
			n.leftKey = append(n.leftKey, p)
			n.rightKey = append(n.rightKey, j)
			continue
		}
		n.rightNew = append(n.rightNew, j)
		n.cols = append(n.cols, c)
	}
	for i, c := range rightCols {
		for _, dup := range rightCols[:i] {
			if c == dup {
				return nil, fmt.Errorf("physical: symjoin right input repeats column %q", c)
			}
		}
	}
	return n, nil
}

func (n *SymJoinNode) Kind() Kind        { return KindSymJoin }
func (n *SymJoinNode) Columns() []string { return n.cols }
func (n *SymJoinNode) Inputs() []Node    { return []Node{n.Left, n.Right} }
func (n *SymJoinNode) Desc() string {
	keys := make([]string, len(n.leftKey))
	for i, p := range n.leftKey {
		keys[i] = n.Left.Columns()[p]
	}
	if len(keys) == 0 {
		return "(cross)"
	}
	return "on " + strings.Join(keys, ",")
}

// --- operator ---

// colSymTable is one side's accumulated rows in ID form: a column store
// of every row inserted so far plus a packed-key bucket index, rows in
// insertion order.
type colSymTable struct {
	store   colBatch
	buckets map[string][]int32
	keyBuf  []byte
}

func newColSymTable(width int) *colSymTable {
	return &colSymTable{store: newColBatch(width), buckets: make(map[string][]int32)}
}

// insert appends row i of batch, returning the bucket of the OTHER
// side's table is probed with the same packed key by the caller.
func (t *colSymTable) insert(batch colBatch, keyPos []int, i int) {
	t.keyBuf = batch.packRowOn(t.keyBuf[:0], keyPos, i)
	t.buckets[string(t.keyBuf)] = append(t.buckets[string(t.keyBuf)], int32(t.store.n))
	t.store.appendRow(batch, i)
}

// probe returns the insertion-ordered row indices matching the packed
// key of row i of batch.
func (t *colSymTable) probe(batch colBatch, keyPos []int, i int) []int32 {
	t.keyBuf = batch.packRowOn(t.keyBuf[:0], keyPos, i)
	return t.buckets[string(t.keyBuf)]
}

type colSymJoinOp struct {
	n           *SymJoinNode
	id          int
	left, right colOperator

	leftTab, rightTab   *colSymTable
	leftDone, rightDone bool
	pullLeft            bool
	tracked             int
	released            bool
	pending             colBatch

	rowsIn  int
	rowsOut int
	batches int
	wall    time.Duration
}

func (o *colSymJoinOp) open(ctx *Ctx) error {
	if err := o.left.open(ctx); err != nil {
		return err
	}
	if err := o.right.open(ctx); err != nil {
		return err
	}
	o.leftTab = newColSymTable(len(o.n.Left.Columns()))
	o.rightTab = newColSymTable(len(o.n.Right.Columns()))
	o.pullLeft = true
	return nil
}

// emitPair appends the joined row for left-store-or-batch row l and
// right row r (out layout: left columns, then right non-key columns).
func (o *colSymJoinOp) emitPair(out *colBatch, leftRows colBatch, l int, rightRows colBatch, r int) {
	nl := len(leftRows.cols)
	for c := 0; c < nl; c++ {
		out.cols[c] = append(out.cols[c], leftRows.cols[c][l])
	}
	for j, p := range o.n.rightNew {
		out.cols[nl+j] = append(out.cols[nl+j], rightRows.cols[p][r])
	}
	out.n++
}

func (o *colSymJoinOp) absorbLeft(ctx *Ctx, batch colBatch) colBatch {
	out := newColBatch(len(o.n.cols))
	for i := 0; i < batch.n; i++ {
		o.leftTab.insert(batch, o.n.leftKey, i)
		o.tracked++
		ctx.track(1)
		for _, r := range o.rightTab.probe(batch, o.n.leftKey, i) {
			o.emitPair(&out, batch, i, o.rightTab.store, int(r))
		}
	}
	return out
}

func (o *colSymJoinOp) absorbRight(ctx *Ctx, batch colBatch) colBatch {
	out := newColBatch(len(o.n.cols))
	for i := 0; i < batch.n; i++ {
		o.rightTab.insert(batch, o.n.rightKey, i)
		o.tracked++
		ctx.track(1)
		for _, l := range o.leftTab.probe(batch, o.n.rightKey, i) {
			o.emitPair(&out, o.leftTab.store, int(l), batch, i)
		}
	}
	return out
}

func (o *colSymJoinOp) next(ctx *Ctx) (colBatch, bool, error) {
	if o.pending.n > 0 {
		return o.emitChunk(), true, nil
	}
	for !o.leftDone || !o.rightDone {
		if err := ctx.Gate.Check(); err != nil {
			return colBatch{}, false, err
		}
		// Strict alternation: one batch left, one batch right; an
		// exhausted side yields its turn to the survivor.
		fromLeft := o.pullLeft
		if o.leftDone {
			fromLeft = false
		} else if o.rightDone {
			fromLeft = true
		}
		o.pullLeft = !fromLeft
		var (
			batch colBatch
			ok    bool
			err   error
		)
		if fromLeft {
			batch, ok, err = o.left.next(ctx)
		} else {
			batch, ok, err = o.right.next(ctx)
		}
		if err != nil {
			return colBatch{}, false, err
		}
		if !ok {
			if fromLeft {
				o.leftDone = true
			} else {
				o.rightDone = true
			}
			continue
		}
		var start time.Time
		if ctx.Col != nil {
			start = time.Now()
		}
		var out colBatch
		if fromLeft {
			out = o.absorbLeft(ctx, batch)
		} else {
			out = o.absorbRight(ctx, batch)
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
	// Both streams drained: the two hash tables die with the operator.
	if !o.released {
		ctx.track(-o.tracked)
		o.released = true
	}
	return colBatch{}, false, nil
}

func (o *colSymJoinOp) emitChunk() colBatch {
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

func (o *colSymJoinOp) close(ctx *Ctx) {
	o.left.close(ctx)
	o.right.close(ctx)
	record(ctx, obs.Event{
		Op: obs.OpSymJoin, ID: o.id, Desc: o.n.Desc(),
		RowsIn: o.rowsIn, RowsOut: o.rowsOut, Workers: 1, Wall: o.wall,
		IDBatches: o.batches,
	})
}
