package main

import (
	"fmt"
	"time"

	"queryflocks/internal/analysis"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/planner"
	"queryflocks/internal/storage"
)

// batchSystem is the in-process library path, strung together exactly as
// cmd/flockql does it for one flock: parse, lint, build, plan, execute,
// sort.
type batchSystem struct {
	db   *storage.Database
	tr   *tracer
	prev cumulative
}

// do runs one op from source text to sorted answer rows. With a tracer
// it records a span around every call into a layer and hands the
// engine's own RunReport back.
func (b *batchSystem) do(req request) opResult {
	op := b.tr.nextOp()
	var parent int
	step := func(layer string, start time.Time) time.Time {
		now := time.Now()
		b.tr.add(op, req.OpType, layer, parent, start, now)
		return now
	}
	start := time.Now()
	parent = b.tr.begin(op, req.OpType, "bench.op", 0, start)
	res := opResult{req: req}
	fail := func(err error) opResult {
		res.err = err
		res.latency = time.Since(start)
		return res
	}

	fs, err := datalog.ParseFlock(analysis.StripExplain(req.Body))
	if err != nil {
		return fail(err)
	}
	t := step("datalog.parse", start)
	diags := analysis.AnalyzeFlockSource(fs, analysis.Options{DB: b.db})
	if analysis.HasErrors(diags) {
		return fail(fmt.Errorf("lint: %s", analysis.Render(diags)))
	}
	t = step("analysis.lint", t)
	flock, err := core.NewWithViews(fs.Views, fs.Query, fs.Filter)
	if err == nil {
		err = flock.CheckDatabase(b.db)
	}
	if err != nil {
		return fail(err)
	}
	t = step("core.build", t)

	var etr *eval.Trace
	if b.tr != nil {
		etr = &eval.Trace{}
		etr.Collector()
	}
	ev := &core.EvalOptions{Workers: 1, Trace: etr}
	var rel *storage.Relation
	switch req.Strategy {
	case "direct":
		rel, err = flock.Eval(b.db, ev)
	case "static":
		var plan *core.Plan
		plan, err = planner.PlanStatic(flock, planner.NewEstimator(b.db), nil)
		if err != nil {
			return fail(err)
		}
		t = step("planner.plan", t)
		var pr *core.PlanResult
		if pr, err = plan.Execute(b.db, ev); err == nil {
			rel = pr.Answer
		}
	case "dynamic":
		var dr *planner.DynamicResult
		if dr, err = planner.EvalDynamic(b.db, flock, &planner.DynamicOptions{Workers: 1, Trace: etr}); err == nil {
			rel = dr.Answer
		}
	default:
		err = fmt.Errorf("unknown strategy %q", req.Strategy)
	}
	if err != nil {
		return fail(err)
	}
	var report *obs.RunReport
	if etr != nil {
		report = etr.Report(req.Strategy, 1, rel.Len())
	}
	t = step("physical.exec", t)
	rows := relationRows(rel)
	end := step("storage.sorted", t)

	res.latency = end.Sub(start)
	res.got = hashRows(rows)
	b.tr.end(parent, end)
	if report != nil {
		res.detail = &opDetail{}
		res.detail.fromReport(report, &b.prev)
	}
	return res
}
