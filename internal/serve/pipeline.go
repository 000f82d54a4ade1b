package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"queryflocks/internal/analysis"
	"queryflocks/internal/cluster"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/obs"
	"queryflocks/internal/physical"
	"queryflocks/internal/planner"
	"queryflocks/internal/storage"
)

// Config bounds every evaluation a pipeline runs. Timeout and limits
// compose with each request's own context, so a client disconnect, the
// wall clock, and the resource budgets all abort the same evaluation
// through the engine's cooperative checkpoints. The zero value is the
// unbounded, uncached, single-node pipeline flockql runs.
type Config struct {
	// Timeout is the per-evaluation wall-clock limit (0 = none). A request
	// may lower it (Request.Timeout), never raise it.
	Timeout time.Duration
	// MaxQueries is the concurrent-evaluation admission cap; requests
	// beyond it are refused with 503 rather than queued (0 = no cap). The
	// cap covers planning and evaluation only — lint-only requests and
	// cache lookups never consume a slot.
	MaxQueries int
	// MaxTuples and MaxRows are the per-evaluation resource budgets
	// (eval.Limits semantics; 0 = unlimited).
	MaxTuples int
	MaxRows   int
	// Workers is the engine worker knob (0 = one per CPU).
	Workers int
	// PlanCacheSize bounds the LRU plan cache (entries; 0 disables).
	PlanCacheSize int
	// MemoMaxBytes bounds the candidate-subquery memo (estimated bytes;
	// 0 disables).
	MemoMaxBytes int64
	// Dir, when non-nil, is the opened data directory: mutations append
	// durably to its delta layer and prepared flocks persist in it.
	Dir *storage.Dir
	// Cluster, when non-nil, makes this pipeline a shard coordinator:
	// FILTER computations scatter to the worker shards and their partial
	// group states merge in shard order (see internal/cluster). Mutations
	// are refused — workers derive their partition from their own data
	// load, so the cluster must restart to change data.
	Cluster *cluster.Coordinator
}

// Pipeline is the one request path behind every front-end, in four
// stages: compile (compile.go), plan (strategy.go), execute (execute.go),
// report (report.go). Admission, the plan cache, the subquery memo and the
// coordinator session hang off that path, so a request's report is
// stamped in one place.
//
// Caching: three layers, all keyed through the canonical (alpha-renamed)
// program text and the database's data-version counter. The prepared-
// flock registry skips parse/lint/plan on Invoke; the LRU plan cache
// skips analysis and planning for repeated Query programs; the candidate-
// subquery memo (core.SubqueryMemo) shares §3.1 subquery results across
// requests — including across threshold changes, whose extended answers
// are filter-independent. A mutation publishes a bumped copy-on-write
// database, so in-flight requests keep their snapshot and stale cache
// entries become unreachable by key.
type Pipeline struct {
	cfg   Config
	Slots chan struct{} // admission slots; nil when uncapped

	mu sync.RWMutex // guards db (copy-on-write pointer swap on mutation)
	db *storage.Database

	plans *PlanCache
	memo  *Memo

	// prepared is the prepared-flock table, addressed by the content-
	// derived Handle and persisted to the data directory (nil Dir =
	// in-memory only). Entries are immutable once registered.
	preparedMu sync.RWMutex
	prepared   map[string]*Program
}

// New builds a pipeline over db.
func New(db *storage.Database, cfg Config) *Pipeline {
	p := &Pipeline{
		db:       db,
		cfg:      cfg,
		plans:    NewPlanCache(cfg.PlanCacheSize),
		memo:     NewMemo(cfg.MemoMaxBytes),
		prepared: make(map[string]*Program),
	}
	if cfg.MaxQueries > 0 {
		p.Slots = make(chan struct{}, cfg.MaxQueries)
	}
	return p
}

// Snapshot returns the current database. The pointer is immutable data:
// mutations publish a new database rather than changing this one, so a
// request evaluates against one consistent version end to end.
func (p *Pipeline) Snapshot() *storage.Database {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.db
}

// CacheStats samples all three cache layers into the obs counter block.
func (p *Pipeline) CacheStats(db *storage.Database) *obs.CacheStats {
	p.preparedMu.RLock()
	cs := &obs.CacheStats{PreparedFlocks: len(p.prepared), DBVersion: db.Version()}
	p.preparedMu.RUnlock()
	ps := p.plans.Stats()
	cs.PlanEntries, cs.PlanCapacity = ps.Entries, ps.Capacity
	cs.PlanHits, cs.PlanMisses, cs.PlanEvictions = ps.Hits, ps.Misses, ps.Evictions
	ms := p.memo.Stats()
	cs.MemoEntries, cs.MemoBytes, cs.MemoMaxBytes = ms.Entries, ms.Bytes, ms.MaxBytes
	cs.MemoExtHits, cs.MemoExtMisses = ms.ExtHits, ms.ExtMisses
	cs.MemoSurvHits, cs.MemoSurvMisses = ms.SurvHits, ms.SurvMiss
	cs.MemoEvictions = ms.Evictions
	return cs
}

// Request is what a front-end brings to one evaluation.
type Request struct {
	Ctx      context.Context // the caller's cancellation (client disconnect); may be nil
	Strategy string          // a row of the strategy table ("" = direct)
	Timeout  time.Duration   // tightens Config.Timeout for this evaluation (0 = keep it)
	NoCache  bool            // bypass the plan cache and the memo
	Trace    bool            // collect operator events into Outcome.Report
	Side     Side            // what the cascade and plan strategies need

	// served marks a Query/Invoke request: only side-input-free strategies,
	// and the report carries the serving layer's cache counters.
	served bool
}

// Tighten resolves an effective wall limit: the configured limit, lowered
// (never raised) by a positive per-request one.
func Tighten(limit, request time.Duration) time.Duration {
	if request > 0 && (limit == 0 || request < limit) {
		return request
	}
	return limit
}

// Outcome is one successful evaluation, returned by value so the warm
// path allocates nothing for it. Plan and Steps are the §4.2 plan
// a plan-executing strategy ran and its per-step results, Decisions the
// dynamic strategy's §4.4 choices (front-ends print them under -explain);
// Report, for traced requests, is the operator report stamped with the
// cache counters and, on a coordinator, the scatter statistics.
type Outcome struct {
	Strategy  string
	Answer    *storage.Relation
	Plan      *core.Plan
	Steps     *core.PlanResult
	Decisions []planner.Decision
	Warnings  []analysis.Diagnostic // the compile stage's non-error findings
	Wall      time.Duration         // execution and report assembly
	Report    *obs.RunReport

	states *physical.GroupStates // the partial pseudo-strategy's result
}

// entry is one unit of work for the execute stage, and the plan-cache
// value: everything needed to evaluate a program again without
// re-analyzing or re-planning it. plan stays nil for strategies that
// execute no §4.2 plan; part is /partial's scattered computation.
type entry struct {
	flock    *core.Flock
	plan     *core.Plan
	warnings []analysis.Diagnostic
	part     *cluster.Computation
}

// planKey composes a plan-cache key: strategy and data version scope the
// canonical program text, so a strategy switch or a mutation can never
// be answered by the wrong plan.
func planKey(canon, strategy string, version uint64) string {
	return fmt.Sprintf("%s|v%d|%s", strategy, version, canon)
}

// cached looks a program up in the plan cache; a hit skips analysis,
// flock construction, and planning. Alpha-equivalent programs share an
// entry via the canonical text; the embedded data version keeps entries
// from answering across mutations. key is "" when the request bypasses
// the cache.
func (p *Pipeline) cached(db *storage.Database, canon string, st strategy, req Request) (key string, ent *entry) {
	if req.NoCache {
		return "", nil
	}
	key = planKey(canon, st.name, db.Version())
	if v, ok := p.plans.Get(key); ok {
		ent = v.(*entry)
	}
	return key, ent
}

// finish is the shared tail of every evaluating entry point: admit, plan,
// publish the entry to the plan cache, execute. Admission covers the
// expensive work only — refusing rather than queueing, so an overloaded
// service degrades predictably and load-balancers can react.
func (p *Pipeline) finish(db *storage.Database, st strategy, key string, ent *entry, req Request) (Outcome, error) {
	if p.Slots != nil {
		select {
		case p.Slots <- struct{}{}:
			defer func() { <-p.Slots }()
		default:
			return Outcome{}, statusErrorf(http.StatusServiceUnavailable,
				"over the concurrent-query cap (%d); retry later", p.cfg.MaxQueries)
		}
	}
	if ent.plan == nil && st.plans {
		plan, err := Plan(st.name, ent.flock, db, req.Side)
		if err != nil {
			return Outcome{}, err
		}
		ent.plan = plan
	}
	if key != "" {
		p.plans.PutAt(key, db.Version(), ent)
	}
	return p.execute(db, st, ent, req)
}

// Query is /query: compile the posted program (the plan cache may stand
// in for everything after the parse) and evaluate it.
func (p *Pipeline) Query(src string, req Request) (Outcome, error) {
	req.served = true
	st, err := lookupStrategy(req.Strategy, req.served)
	if err != nil {
		return Outcome{}, err
	}
	_, fs, err := parse(src, analysis.Options{})
	if err != nil {
		return Outcome{}, err
	}
	db := p.Snapshot()
	key, ent := p.cached(db, analysis.CanonicalProgram(fs), st, req)
	if ent == nil {
		prog, err := build(fs, db, p.lintOptions(db, st.name))
		if err != nil {
			return Outcome{}, err
		}
		ent = &entry{flock: prog.Flock, warnings: prog.Warnings}
	}
	return p.finish(db, st, key, ent, req)
}

// Lint is /query?lint=1: the compile stage's parse and analysis only, as
// diagnostics. It never evaluates and never competes for an admission
// slot; strategy may be any string (QF024 reports one that cannot
// scatter).
func (p *Pipeline) Lint(src, strategy string) ([]analysis.Diagnostic, error) {
	_, fs, err := parse(src, analysis.Options{})
	var rej *Rejected
	if errors.As(err, &rej) {
		return rej.Diagnostics, nil
	}
	if err != nil {
		return nil, err
	}
	db := p.Snapshot()
	return analysis.AnalyzeFlockSource(fs, p.lintOptions(db, strategy)), nil
}

// Prepare is /prepare: compile the program and enter it in the prepared-
// flock table under its content-derived handle, rewriting the sidecar
// for a new entry. Registration is idempotent — re-preparing an alpha-
// equivalent program returns the existing entry.
func (p *Pipeline) Prepare(src string) (handle string, prog *Program, existed bool, err error) {
	return p.prepare(src, true)
}

// prepare is Prepare; the sidecar restore passes persist=false. The table
// lock is held across the sidecar write so concurrent registrations
// cannot publish snapshots out of order.
func (p *Pipeline) prepare(src string, persist bool) (handle string, prog *Program, existed bool, err error) {
	prog, err = p.Compile(src, p.lintOptions(p.Snapshot(), ""))
	if err != nil {
		return "", nil, false, err
	}
	prog.text, prog.canon = src, analysis.CanonicalProgram(prog.Source)
	handle = Handle(prog.canon)
	p.preparedMu.Lock()
	defer p.preparedMu.Unlock()
	if old, ok := p.prepared[handle]; ok {
		return handle, old, true, nil
	}
	p.prepared[handle] = prog
	if persist {
		if err := p.persistPrepared(); err != nil {
			return "", nil, false, statusErrorf(http.StatusInternalServerError, "persisting prepared flock: %v", err)
		}
	}
	return handle, prog, false, nil
}

// Invoke is /invoke/{handle}: evaluate a prepared flock without parsing,
// linting, or constructing it again. A non-null threshold rebinds the
// filter threshold for this invocation — the interactive-mining knob:
// tightening it reuses the memoized extended answers, which are
// threshold-independent.
func (p *Pipeline) Invoke(handle string, threshold storage.Value, req Request) (Outcome, error) {
	p.preparedMu.RLock()
	prog, ok := p.prepared[handle]
	p.preparedMu.RUnlock()
	if !ok {
		return Outcome{}, statusErrorf(http.StatusNotFound, "no prepared flock %q (POST the program to /prepare first)", handle)
	}
	req.served = true
	st, err := lookupStrategy(req.Strategy, req.served)
	if err != nil {
		return Outcome{}, err
	}
	flock, canon := prog.Flock, prog.canon
	if !threshold.IsNull() {
		fs := prog.Source
		spec := fs.Filter
		spec.Threshold = threshold
		if flock, err = core.NewWithViews(fs.Views, fs.Query, spec); err != nil {
			return Outcome{}, fmt.Errorf("bad threshold binding: %v", err)
		}
		canon = analysis.CanonicalProgram(&datalog.FlockSource{Views: fs.Views, Query: fs.Query, Filter: spec})
	}
	db := p.Snapshot()
	key, ent := p.cached(db, canon, st, req)
	if ent == nil {
		// The program was fully checked at prepare time; only the
		// database binding needs re-verification (the schema could in
		// principle drift across mutations).
		if err := flock.CheckDatabase(db); err != nil {
			return Outcome{}, err
		}
		ent = &entry{flock: flock, warnings: prog.Warnings}
	}
	return p.finish(db, st, key, ent, req)
}

// Run evaluates an already compiled program: the library entry point of
// flockql's file mode, the REPL, and the experiments. Every strategy of
// the table is available, side-input ones included.
func (p *Pipeline) Run(prog *Program, req Request) (Outcome, error) {
	st, err := lookupStrategy(req.Strategy, false)
	if err != nil {
		return Outcome{}, err
	}
	return p.finish(p.Snapshot(), st, "", &entry{flock: prog.Flock, warnings: prog.Warnings}, req)
}
