package core

import (
	"runtime"
	"sync"

	"queryflocks/internal/datalog"
	"queryflocks/internal/obs"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// This file is the one in-process parallelism model of FILTER computations
// (§4.1): split the computation's first parameter's values into disjoint
// parts. A flock's answer is a set of parameter assignments and the group
// operator groups by exactly those parameters, so every group lives in one
// part, and the answer is the parts' answers side by side, with nothing to
// merge. Every part reads every relation whole; only the operator that
// first binds the parameter keeps its part's rows (a part check, see
// physical.RuleOpts.Split).

// partitions resolves the Workers knob: 0 is one part per CPU, a
// negative value one part.
func (o *EvalOptions) partitions() int {
	if o == nil || o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(o.Workers, 1)
}

// evalPartitioned runs one FILTER computation as w parts of its first
// parameter: the plan is compiled once with a part check, run i runs it on
// its own goroutine as part i, and the parts' answers are appended in part
// order before the answer-row cap applies. The tuple budget charges the
// sum of the parts' peaks; a traced run records each part's operators,
// part by part.
func evalPartitioned(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter Filter, name string, w int, opts *EvalOptions) (*storage.Relation, error) {

	group, err := compileFilteredNode(db, params, query, filter, name, w)
	if err != nil {
		return nil, err
	}
	plan := physical.NewPlan(physical.NewMaterialize(name, group, nil))
	if opts == nil {
		opts = &EvalOptions{}
	}
	opts = opts.withGate()
	gate := opts.subquery().Gate.Pooled()
	col := opts.Trace.Collector() // anchors the run's clock before the parts start
	rels, cols, errs := make([]*storage.Relation, w), make([]*obs.Collector, w), make([]error, w)
	panics := make([]any, w)
	var wg sync.WaitGroup
	for i := range rels {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			if opts.Trace != nil {
				cols[i] = obs.NewCollector()
			}
			rels[i], errs[i] = plan.Run(&physical.Ctx{DB: db, Col: cols[i], Gate: gate, Part: i})
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p) // on the caller's goroutine, where the serving layer recovers
		}
	}
	col.Absorb(cols)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, r := range rels[1:] {
		rels[0].InsertAll(r)
	}
	if err := opts.gate().CheckOutput(rels[0].Len()); err != nil {
		return nil, err
	}
	return rels[0], nil
}
