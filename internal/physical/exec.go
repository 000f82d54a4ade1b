package physical

import (
	"fmt"

	"queryflocks/internal/obs"
	"queryflocks/internal/storage"
)

// batchSize is the number of binding tuples pulled per Next call. Large
// enough to amortize per-batch overhead and give the partitioned join
// workers useful chunks, small enough that in-flight batches stay cheap.
const batchSize = 1024

// minParallelRows mirrors the eval package's knob: probe batches below
// this size stay sequential, where goroutine startup dominates.
const minParallelRows = 256

// Ctx carries one execution's environment and its high-water gauge of
// tuples buffered in pipeline-breaker state (group maps, materialized
// barriers, the sink) — the streaming analogue of the materializing
// path's largest-intermediate measure.
type Ctx struct {
	// DB resolves base relations at operator open.
	DB *storage.Database
	// Workers is the partitioned-operator worker knob (0 = one per CPU,
	// 1 = sequential). Answers are identical at every worker count.
	Workers int
	// Col, when non-nil, receives one typed event per operator.
	Col *obs.Collector
	// Gate, when non-nil, is the evaluation's cancellation and budget
	// checkpoint: operators consult it at batch boundaries, and the
	// buffered-tuple gauge feeds its tuple budget. Nil means unlimited.
	Gate *Gate

	// dict is DB's value dictionary, resolved by Run: operators stream
	// batches of its uint32 IDs.
	dict *storage.Dict

	buffered int
	peak     int
}

// track adjusts the buffered-tuple gauge; the high-water reading doubles
// as the tuple-budget enforcement point.
func (c *Ctx) track(delta int) {
	c.buffered += delta
	if c.buffered > c.peak {
		c.peak = c.buffered
		c.Gate.NoteLive(c.buffered)
	}
}

// record sends one event if collection is on.
func record(ctx *Ctx, e obs.Event) {
	if ctx.Col != nil {
		ctx.Col.Record(e)
	}
}

// Run executes the plan against ctx. The root must be a Materialize
// sink; its relation is returned. Each Run instantiates fresh operator
// state, so a compiled plan may run repeatedly (even concurrently, with
// separate Ctx values).
func (p *Plan) Run(ctx *Ctx) (*storage.Relation, error) {
	root, ok := p.Root.(*MaterializeNode)
	if !ok {
		return nil, fmt.Errorf("physical: plan root is %s, want materialize", p.Root.Kind())
	}
	op := newColOp(p, root).(*colMaterializeOp)
	if err := p.drive(ctx, op, op.materialize); err != nil {
		return nil, err
	}
	return op.rel, nil
}

// ExportGroups executes a plan whose root is the group operator of one
// FILTER computation and returns every parameter group's partial state
// instead of the verdicts — a cluster worker's half of a scattered
// computation, which the coordinator folds with MergeGroupStates.
// additive says the parts being exported are pairwise disjoint on the
// column a COUNT-distinct counts, so a count can stand for the value set
// (see StateCount).
func (p *Plan) ExportGroups(ctx *Ctx, additive bool) (*GroupStates, error) {
	root, ok := p.Root.(*GroupNode)
	if !ok {
		return nil, fmt.Errorf("physical: plan root is %s, want group", p.Root.Kind())
	}
	op := newColOp(p, root).(*colGroupOp)
	op.exporting = true
	op.keepSets = root.Agg.StateKind(additive) == StateSet
	var states *GroupStates
	err := p.drive(ctx, op, func(ctx *Ctx) error {
		if err := op.build(ctx); err != nil {
			return err
		}
		// The last batch may have breached the tuple budget.
		if err := ctx.Gate.Check(); err != nil {
			return err
		}
		states = op.export(ctx, additive)
		return nil
	})
	return states, err
}

// drive opens the root operator, runs it to completion and closes it,
// resolving the dictionary first and sampling the run's gauges after.
func (p *Plan) drive(ctx *Ctx, op colOperator, run func(*Ctx) error) error {
	dict, err := ctx.DB.Dict()
	if err != nil {
		return fmt.Errorf("physical: %w", err)
	}
	ctx.dict = dict
	err = op.open(ctx)
	if err == nil {
		err = run(ctx)
	}
	op.close(ctx)
	if ctx.Col != nil {
		ctx.Col.ObservePeak(ctx.peak)
		ctx.Col.ObserveDict(dict.Len(), dict.Hits(), dict.Misses())
		if io := ctx.DB.IO(); io != nil {
			// Cumulative counters: the collector max-merges the samples.
			ctx.Col.ObserveStorage(uint64(io.SegmentsOpened()), uint64(io.IndexBlocksRead()),
				uint64(io.DeltaRows()), uint64(io.BytesRead()))
		}
	}
	return err
}
