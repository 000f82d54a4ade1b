package core

import (
	"fmt"
	"strings"
	"time"

	"queryflocks/internal/obs"
	"queryflocks/internal/storage"
)

// StepStats records the outcome of one executed FILTER step.
type StepStats struct {
	// Name is the step's relation name.
	Name string
	// Rows is the number of parameter tuples the step admitted.
	Rows int
}

// PlanResult is the outcome of executing a plan.
type PlanResult struct {
	// Answer is the flock's answer: the final step's relation.
	Answer *storage.Relation
	// Steps records each step's output size, in execution order.
	Steps []StepStats
}

// String summarizes the execution.
func (r *PlanResult) String() string {
	var b strings.Builder
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "%s: %d rows\n", s.Name, s.Rows)
	}
	fmt.Fprintf(&b, "answer: %d rows", r.Answer.Len())
	return b.String()
}

// Execute runs the plan's FILTER steps in order against db. Each step's
// result is registered (under the step's name) in a scratch copy of the
// database so later steps can reference it; the final step's result is the
// flock's answer. The plan must be valid (NewPlan validates; hand-built
// plans should call Validate first). opts.Workers applies to every step:
// each runs as that many in-process parts of its first parameter (see
// evalPartitioned), with the same step relation for any count.
func (p *Plan) Execute(db *storage.Database, opts *EvalOptions) (*PlanResult, error) {
	if err := p.Flock.CheckDatabase(db); err != nil {
		return nil, err
	}
	opts = opts.withGate() // all steps share one wall clock and budget
	mat, err := p.Flock.MaterializeViews(db, opts)
	if err != nil {
		return nil, err
	}
	scratch := mat.Clone()
	res := &PlanResult{}
	// With a memo mounted, each step's keys are scoped by a salt chained
	// over the steps before it: step queries reference earlier step
	// relations by name, and the chain binds each name to its derivation
	// so equal step texts from different plans cannot alias (memo.go).
	memoSalt := ""
	if opts != nil && opts.Memo != nil {
		memoSalt = opts.MemoSalt
	}
	for si, step := range p.Steps {
		// Only the final step's relation is the flock's answer; earlier
		// steps are intermediates and escape the answer-row cap.
		stepOpts := opts
		if si < len(p.Steps)-1 {
			stepOpts = opts.subquery()
		}
		if opts != nil && opts.Memo != nil {
			c := *stepOpts
			c.MemoSalt = memoSalt
			stepOpts = &c
			memoSalt = chainSalt(memoSalt, step, p.Flock.Filter)
		}
		var start time.Time
		if opts != nil && opts.Trace != nil {
			start = time.Now()
		}
		rel, err := executeStep(scratch, p, step, stepOpts)
		if err != nil {
			return nil, fmt.Errorf("core: executing step %q: %w", step.Name, err)
		}
		res.Steps = append(res.Steps, StepStats{Name: step.Name, Rows: rel.Len()})
		res.Answer = rel
		if opts != nil && opts.Trace != nil {
			opts.Trace.Collector().Record(obs.Event{
				Op:      obs.OpStep,
				Desc:    step.Name,
				RowsOut: rel.Len(),
				Wall:    time.Since(start),
			})
		}
	}
	// A plan may declare the final step's parameters in any order (e.g.
	// Fig. 5 writes ok($s,$m)); normalize the answer to the flock's
	// canonical (sorted) parameter order.
	res.Answer = reorderToFlockParams(res.Answer, p.Flock)
	return res, nil
}

// executeStep runs one FILTER step against the scratch database,
// registering the step relation in scratch (later steps reference it).
// The step is compiled at execution time so the join order sees the
// actual sizes of earlier step relations.
func executeStep(scratch *storage.Database, p *Plan, step FilterStep, opts *EvalOptions) (*storage.Relation, error) {
	return evalFiltered(scratch, step.Params, step.Query, p.Flock.Filter, step.Name, opts, func(rel *storage.Relation) error {
		scratch.Add(rel)
		return nil
	})
}

// reorderToFlockParams projects the final step's relation onto the flock's
// canonical parameter column order, moving ID rows within its dictionary.
func reorderToFlockParams(rel *storage.Relation, f *Flock) *storage.Relation {
	want := f.ParamColumns()
	pos := make([]int, len(want))
	same := true
	for i, col := range want {
		p := rel.ColumnIndex(col)
		pos[i] = p
		if p != i {
			same = false
		}
	}
	if same {
		return rel
	}
	out := storage.NewRelationIn(rel.Dict(), rel.Name(), want...)
	ids, _ := rel.InternedColumns(rel.Dict(), nil) // its own columns: no build, no error
	row := make([]uint32, len(pos))
	for i := 0; i < rel.Len(); i++ {
		for j, p := range pos {
			row[j] = ids[p][i]
		}
		out.InsertIDs(row)
	}
	return out
}
