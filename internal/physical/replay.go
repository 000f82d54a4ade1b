package physical

import (
	"fmt"
	"time"

	"queryflocks/internal/obs"
	"queryflocks/internal/storage"
)

// This file is the executor's half of the FILTER-computation memo. A
// group operator run in capture mode keeps every distinct (params...,
// head...) row its dedup set sees — the rows of short-circuited groups
// too — and hands them back as the computation's filter-independent
// extended answer, in pointer-free ID columns. A later run over the same
// data replays those rows into a group operator in place of the rule
// pipelines that produced them.

// IDRows is a set of distinct fixed-width rows of dictionary IDs in
// column-major form: Cols[j][i] is row i's j-th column, an ID of Dict.
// Rows are in first-seen order. Immutable once built, so one value may
// feed any number of concurrent replays.
type IDRows struct {
	Dict *storage.Dict
	N    int
	Cols [][]uint32
}

// ReplayNode is a pipeline source that streams a memoized IDRows. Its rows
// are distinct, so a group operator reading it builds no dedup set.
type ReplayNode struct {
	Rows *IDRows
	cols []string
}

// NewReplay builds a replay leaf producing rows under the column names
// cols.
func NewReplay(rows *IDRows, cols []string) (*ReplayNode, error) {
	if len(cols) != len(rows.Cols) {
		return nil, fmt.Errorf("physical: replay of %d-column rows as %d columns", len(rows.Cols), len(cols))
	}
	return &ReplayNode{Rows: rows, cols: cols}, nil
}

func (n *ReplayNode) Kind() Kind        { return KindScan }
func (n *ReplayNode) Desc() string      { return "memo" }
func (n *ReplayNode) Columns() []string { return n.cols }
func (n *ReplayNode) Inputs() []Node    { return nil }

// RunCapture is Run for a plan whose sink drains a group operator: the
// group runs in capture mode, and its distinct input rows come back beside
// the sink's relation.
func (p *Plan) RunCapture(ctx *Ctx) (*storage.Relation, *IDRows, error) {
	root, ok := p.Root.(*MaterializeNode)
	if !ok {
		return nil, nil, fmt.Errorf("physical: plan root is %s, want materialize", p.Root.Kind())
	}
	op := newColOp(p, root).(*colMaterializeOp)
	group, ok := op.input.(*colGroupOp)
	if !ok {
		return nil, nil, fmt.Errorf("physical: capture needs a group operator under the sink, not %s", root.Probe.Kind())
	}
	group.capture = true
	if err := p.drive(ctx, op, op.materialize); err != nil {
		return nil, nil, err
	}
	return op.rel, group.captured, nil
}

// colReplayOp streams a ReplayNode's rows in batch-size runs.
type colReplayOp struct {
	n   *ReplayNode
	id  int
	pos int
	out colBatch // the one batch header next refills and returns

	batches int
	wall    time.Duration
}

func (o *colReplayOp) open(ctx *Ctx) error {
	if o.n.Rows.Dict != ctx.dict {
		return fmt.Errorf("physical: replayed rows were interned in another dictionary")
	}
	o.out = newColBatch(len(o.n.cols))
	return nil
}

// next returns the next run of rows as sub-slices of the memoized
// columns: nothing is copied, and the capacity-capped slices keep a
// consumer from appending into rows other runs share.
func (o *colReplayOp) next(ctx *Ctx) (colBatch, bool, error) {
	if err := ctx.Gate.Check(); err != nil {
		return colBatch{}, false, err
	}
	rows := o.n.Rows
	if o.pos >= rows.N {
		return colBatch{}, false, nil
	}
	var start time.Time
	if ctx.Col != nil {
		start = time.Now()
	}
	hi := min(o.pos+batchSize, rows.N)
	for c, col := range rows.Cols {
		o.out.cols[c] = col[o.pos:hi:hi]
	}
	o.out.n = hi - o.pos
	o.pos = hi
	o.batches++
	if ctx.Col != nil {
		o.wall += time.Since(start)
	}
	return o.out, true, nil
}

func (o *colReplayOp) close(ctx *Ctx) {
	record(ctx, obs.Event{
		Op: obs.OpScan, ID: o.id, Desc: o.n.Desc(),
		RowsIn: o.n.Rows.N, RowsOut: o.pos, Workers: 1, Wall: o.wall,
		IDBatches: o.batches, Cached: true,
	})
}
