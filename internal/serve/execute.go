package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"queryflocks/internal/cluster"
	"queryflocks/internal/core"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/planner"
	"queryflocks/internal/storage"
)

// bound derives an evaluation's context: the caller's cancellation plus
// the effective wall limit. One mechanism — a context deadline — serves
// the engine's cooperative checkpoints and the coordinator's blocking
// shard calls alike. An unbounded, uncancelable run keeps a nil context,
// which the engine resolves to its check-free path.
func (p *Pipeline) bound(ctx context.Context, request time.Duration) (context.Context, context.CancelFunc) {
	wall := Tighten(p.cfg.Timeout, request)
	if wall <= 0 {
		return ctx, func() {}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithTimeout(ctx, wall)
}

// run is the core of the execute stage: the only place a front-end's
// workers, context, budgets, collector, memo and coordinator hook are
// turned into engine options. It evaluates ent under st into out; the
// partial pseudo-strategy (Partial) evaluates ent.part into out.states.
// Engine panics are recovered into ErrPanic so a bad query cannot take the
// process down.
func (p *Pipeline) run(ctx context.Context, db *storage.Database, st strategy, ent *entry,
	tr *eval.Trace, useMemo bool, sess *cluster.Session, out *Outcome) (err error) {

	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	limits := eval.Limits{MaxTuples: p.cfg.MaxTuples, MaxRows: p.cfg.MaxRows}
	ev := &core.EvalOptions{Workers: p.cfg.Workers, Trace: tr, Ctx: ctx, Limits: limits}
	if st.memo {
		if useMemo && p.memo != nil {
			ev.Memo = p.memo.At(db.Version())
			ev.MemoSalt = core.MemoContext(db, ent.flock)
		}
		if sess != nil {
			ev.FilterEval = sess.FilterEval
		}
	}
	switch {
	case st.name == "partial":
		out.states, err = core.EvalPartialGroups(ent.part.DB, ent.part.Params, ent.part.Query, ent.part.Filter, ent.part.Name, ent.part.Additive, ev)
	case st.plans:
		if out.Steps, err = ent.plan.Execute(db, ev); err == nil {
			out.Answer = out.Steps.Answer
		}
	case st.name == "naive":
		out.Answer, err = ent.flock.EvalNaive(db, ev)
	case st.name == "dynamic":
		var dyn *planner.DynamicResult
		dyn, err = planner.EvalDynamic(db, ent.flock, &planner.DynamicOptions{
			Workers: p.cfg.Workers, Trace: tr, Ctx: ctx, Limits: limits,
		})
		if err == nil {
			out.Answer, out.Decisions = dyn.Answer, dyn.Decisions
		}
	default:
		out.Answer, err = ent.flock.Eval(db, ev)
	}
	return err
}

// execute runs one flock evaluation under the request's bounds and
// assembles its outcome: the answer, the strategy's by-products, and —
// for traced requests — the operator report stamped with the serving
// layer's cache counters and the coordinator's scatter statistics.
func (p *Pipeline) execute(db *storage.Database, st strategy, ent *entry, req Request) (Outcome, error) {
	ctx, cancel := p.bound(req.Ctx, req.Timeout)
	defer cancel()
	var tr *eval.Trace
	if req.Trace {
		tr = &eval.Trace{}
		tr.Collector() // anchor the wall-clock/alloc baseline before evaluation
	}
	// In coordinator mode each request gets its own scatter/gather
	// session, whose shard stats land in the merged report.
	var sess *cluster.Session
	if p.cfg.Cluster != nil {
		sess = p.cfg.Cluster.Session()
	}
	start := time.Now()
	out := Outcome{Strategy: st.name, Plan: ent.plan, Warnings: ent.warnings}
	if err := p.run(ctx, db, st, ent, tr, !req.NoCache, sess, &out); err != nil {
		return Outcome{}, err
	}
	if tr != nil {
		out.Report = tr.Report(st.name, p.cfg.Workers, out.Answer.Len())
		if req.served {
			out.Report.Caches = p.CacheStats(db)
		}
		if sess != nil {
			out.Report.Cluster = sess.Stats()
		}
		obs.PublishReport(out.Report)
	}
	out.Wall = time.Since(start)
	return out, nil
}

// Partial is /partial on a worker shard: evaluate one scattered FILTER
// computation's partial group states over this pipeline's (restricted)
// snapshot, under the same wall limit, budgets, panic recovery and status
// mapping as every other evaluation. Version pins the coordinator's data
// version: a worker at another version refuses with 409 rather than
// silently answering over other data. Read-only, so retries are safe.
func (p *Pipeline) Partial(ctx context.Context, req *cluster.PartialRequest) (*cluster.PartialResponse, error) {
	db := p.Snapshot()
	if req.Version != db.Version() {
		return nil, statusErrorf(http.StatusConflict,
			"version mismatch: coordinator at v%d, shard at v%d", req.Version, db.Version())
	}
	comp, err := req.Bind(db)
	if err != nil {
		return nil, err
	}
	ctx, cancel := p.bound(ctx, 0)
	defer cancel()
	tr, out := &eval.Trace{}, Outcome{}
	if err := p.run(ctx, db, strategy{name: "partial"}, &entry{part: comp}, tr, false, nil, &out); err != nil {
		return nil, err
	}
	return &cluster.PartialResponse{
		States: out.states, Version: db.Version(), Report: tr.Report("partial", p.cfg.Workers, out.states.Len()),
	}, nil
}

// PartialHandler is Partial's HTTP glue. Every flockd mounts it, so any
// instance can be enlisted as a worker shard. A 200 carries the group
// states in cluster's binary wire form; failures answer with the report
// stage's structured JSON body and status: deterministic ones (4xx,
// including an exceeded budget's 422) so the coordinator's client does
// not retry them, a recovered panic as a 500 body rather than a dropped
// connection.
func (p *Pipeline) PartialHandler() http.HandlerFunc {
	answer := func(w http.ResponseWriter, r *http.Request) ([]byte, error) {
		if r.Method != http.MethodPost {
			return nil, statusErrorf(http.StatusMethodNotAllowed, "POST only")
		}
		var req cluster.PartialRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, cluster.MaxPartialBody)).Decode(&req); err != nil {
			return nil, fmt.Errorf("bad request body: %v", err)
		}
		resp, err := p.Partial(r.Context(), &req)
		if err != nil {
			return nil, err
		}
		return cluster.EncodePartial(resp)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := answer(w, r)
		if err != nil {
			f := Classify(err)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(f.Status)
			_ = json.NewEncoder(w).Encode(f) // best effort once the status is written
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body) // the status line is gone; nothing more to do
	}
}
