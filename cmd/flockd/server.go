package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"queryflocks/internal/analysis"
	"queryflocks/internal/cluster"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/planner"
	"queryflocks/internal/serve"
	"queryflocks/internal/storage"
)

// maxProgramBytes is the request-body cap for posted programs. Bodies are
// read with one spare byte so an over-limit program is *detected* and
// refused with 413 — silently truncating at the limit is dangerous
// because a truncated flock can still parse as a different valid program.
const maxProgramBytes = 1 << 20

// serverConfig bounds every query the service runs. Timeout and limits
// compose with each request's own context, so a client disconnect, the
// per-request wall clock, and the resource budgets all abort the same
// evaluation through the engine's cooperative checkpoints.
type serverConfig struct {
	// Timeout is the per-request wall-clock limit (0 = none). A request
	// may lower it with ?timeout=, never raise it.
	Timeout time.Duration
	// MaxQueries is the concurrent-query admission cap; requests beyond
	// it are refused with 503 rather than queued (0 = no cap). The cap
	// covers planning and evaluation only — lint-only requests and cache
	// lookups never consume a slot.
	MaxQueries int
	// MaxTuples and MaxRows are the per-query resource budgets
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
	// Cluster, when non-nil, makes this server a shard coordinator:
	// FILTER computations scatter to the worker shards and their partial
	// group states merge in shard order (see internal/cluster). Mutations
	// are refused — workers derive their partition from their own data
	// load, so the cluster must restart to change data.
	Cluster *cluster.Coordinator
}

// server evaluates flocks over a served database via HTTP.
//
//	GET  /healthz          liveness probe
//	GET  /rels             the loaded relations (name, columns, rows)
//	GET  /stats            serving-layer cache counters (obs.CacheStats)
//	POST /query            body = flock source; evaluates and returns JSON
//	POST /prepare          body = flock source; registers a prepared flock
//	                       and returns its stable handle
//	POST /invoke/{handle}  evaluates a prepared flock; optional JSON body
//	                       {"threshold": N} rebinds the filter threshold
//	POST /mutate/{rel}     body = CSV rows (no header); appends to the
//	                       relation, bumps the data version, and thereby
//	                       invalidates every cached plan and memo entry
//	                       (501 in coordinator mode)
//	POST /partial          body = cluster.PartialRequest; evaluates one
//	                       FILTER computation's partial group states over
//	                       this instance's (restricted) snapshot
//
// /query and /invoke accept ?strategy= (direct|naive|static|exhaustive|
// levelwise|dynamic, default direct), ?timeout= (a Go duration that may
// only tighten the server-wide limit), and ?cache=0 (bypass the plan
// cache and memo for this request).
//
// Every posted program is parsed once; the parse result is shared by the
// linter (internal/analysis), the evaluator, and the canonicalizer that
// derives cache keys. Programs with error-severity diagnostics are
// rejected with a 400 whose payload carries the structured diagnostics,
// and warning diagnostics ride along in the success payload's "warnings"
// field. ?lint=1 runs only the analyzer and returns its diagnostics
// without evaluating (and without consuming an admission slot).
//
// Caching: three layers, all keyed through the canonical (alpha-renamed)
// program text and the database's data-version counter. The prepared-
// flock registry skips parse/lint/plan on /invoke; the LRU plan cache
// skips analysis and planning for repeated ad-hoc /query programs; the
// candidate-subquery memo (core.SubqueryMemo) shares §3.1 subquery
// results across requests — including across threshold changes, whose
// extended answers are filter-independent. A mutation publishes a bumped
// copy-on-write database, so in-flight requests keep their snapshot and
// stale cache entries become unreachable by key.
type server struct {
	cfg serverConfig
	sem chan struct{} // admission slots; nil when uncapped

	mu sync.RWMutex // guards db (copy-on-write pointer swap on mutation)
	db *storage.Database

	plans    *serve.PlanCache
	memo     *serve.Memo
	prepared *serve.Registry

	// preparedMu guards preparedSrcs, the handle -> source table persisted
	// to the data directory (nil Dir = in-memory only).
	preparedMu   sync.Mutex
	preparedSrcs map[string]string
}

func newServer(db *storage.Database, cfg serverConfig) *server {
	s := &server{
		db:           db,
		cfg:          cfg,
		plans:        serve.NewPlanCache(cfg.PlanCacheSize),
		memo:         serve.NewMemo(cfg.MemoMaxBytes),
		prepared:     serve.NewRegistry(),
		preparedSrcs: make(map[string]string),
	}
	if cfg.MaxQueries > 0 {
		s.sem = make(chan struct{}, cfg.MaxQueries)
	}
	return s
}

// snapshot returns the current database. The pointer is immutable data:
// mutations publish a new database rather than changing this one, so a
// request evaluates against one consistent version end to end.
func (s *server) snapshot() *storage.Database {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/rels", s.handleRels)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/prepare", s.handlePrepare)
	mux.HandleFunc("/invoke/", s.handleInvoke)
	mux.HandleFunc("/mutate/", s.handleMutate)
	// Every flockd serves the read-only partial-group-state endpoint, so
	// any instance can be enlisted as a worker shard.
	mux.HandleFunc("/partial", cluster.PartialHandler(s.snapshot, s.cfg.Workers, s.cfg.Timeout))
	return mux
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// relInfo is one /rels entry.
type relInfo struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    int      `json:"rows"`
}

func (s *server) handleRels(w http.ResponseWriter, r *http.Request) {
	db := s.snapshot()
	names := append([]string(nil), db.Names()...)
	sort.Strings(names)
	infos := make([]relInfo, 0, len(names))
	for _, n := range names {
		src := db.MustSource(n)
		infos = append(infos, relInfo{Name: n, Columns: src.Columns(), Rows: src.Len()})
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cacheStats(s.snapshot()))
}

// cacheStats samples all three cache layers into the obs counter block.
func (s *server) cacheStats(db *storage.Database) *obs.CacheStats {
	cs := &obs.CacheStats{PreparedFlocks: s.prepared.Len(), DBVersion: db.Version()}
	ps := s.plans.Stats()
	cs.PlanEntries, cs.PlanCapacity = ps.Entries, ps.Capacity
	cs.PlanHits, cs.PlanMisses, cs.PlanEvictions = ps.Hits, ps.Misses, ps.Evictions
	ms := s.memo.Stats()
	cs.MemoEntries, cs.MemoBytes, cs.MemoMaxBytes = ms.Entries, ms.Bytes, ms.MaxBytes
	cs.MemoExtHits, cs.MemoExtMisses = ms.ExtHits, ms.ExtMisses
	cs.MemoSurvHits, cs.MemoSurvMisses = ms.SurvHits, ms.SurvMiss
	cs.MemoEvictions = ms.Evictions
	return cs
}

// queryResponse is the /query and /invoke success payload: the answer
// relation plus the run's operator report (the obs.RunReport schema of
// flockbench -json and flockql -metrics json), including the serving
// layer's cumulative cache counters under "caches".
type queryResponse struct {
	Strategy   string                `json:"strategy"`
	Handle     string                `json:"handle,omitempty"`
	AnswerRows int                   `json:"answer_rows"`
	Columns    []string              `json:"columns"`
	Rows       [][]string            `json:"rows"`
	WallNs     int64                 `json:"wall_ns"`
	Warnings   []analysis.Diagnostic `json:"warnings,omitempty"`
	Report     *obs.RunReport        `json:"report,omitempty"`
}

// errorResponse is the payload of every non-200 outcome. Lint rejections
// carry the analyzer's structured diagnostics alongside the one-line
// error; shard failures (502) name the dead shard.
type errorResponse struct {
	Error       string                `json:"error"`
	Shard       string                `json:"shard,omitempty"`
	Relation    string                `json:"relation,omitempty"` // the relation whose segment could not be read
	Diagnostics []analysis.Diagnostic `json:"diagnostics,omitempty"`
}

// lintResponse is the ?lint=1 payload: the analyzer's findings for the
// posted program, without evaluating it.
type lintResponse struct {
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
	Errors      int                   `json:"errors"`
	Warnings    int                   `json:"warnings"`
}

// prepareResponse is the /prepare payload: the stable content-derived
// handle for POST /invoke/{handle}.
type prepareResponse struct {
	Handle   string                `json:"handle"`
	Params   []string              `json:"params"`
	Existing bool                  `json:"existing"`
	Warnings []analysis.Diagnostic `json:"warnings,omitempty"`
}

// mutateResponse is the /mutate payload.
type mutateResponse struct {
	Relation string `json:"relation"`
	Inserted int    `json:"inserted"`
	Rows     int    `json:"rows"`
	Version  uint64 `json:"version"`
}

// planEntry is one plan-cache value: everything needed to evaluate a
// program again without re-analyzing or re-planning it. plan is nil for
// strategies that do not execute a §4.2 plan (direct, naive, dynamic).
type planEntry struct {
	flock    *core.Flock
	plan     *core.Plan
	warnings []analysis.Diagnostic
}

// planKey composes a plan-cache key: strategy and data version scope the
// canonical program text, so a strategy switch or a mutation can never
// be answered by the wrong plan.
func planKey(canon, strategy string, version uint64) string {
	return fmt.Sprintf("%s|v%d|%s", strategy, version, canon)
}

// validStrategy is the closed set /query and /invoke accept.
func validStrategy(s string) bool {
	switch s {
	case "direct", "naive", "static", "exhaustive", "levelwise", "dynamic":
		return true
	}
	return false
}

// needsPlan reports whether the strategy executes a prebuilt §4.2 plan.
func needsPlan(s string) bool {
	return s == "static" || s == "exhaustive" || s == "levelwise"
}

// memoStrategy reports whether the strategy routes FILTER computations
// through the candidate-subquery memo. naive is the definitional oracle
// (it must not share state with what it checks) and dynamic re-decides
// its plan from observed sizes mid-run, so both stay memo-free.
func memoStrategy(s string) bool {
	return s == "direct" || s == "static" || s == "exhaustive" || s == "levelwise"
}

// readProgram reads a request body under the program-size cap, reporting
// an over-limit body as 413 instead of truncating it.
func readProgram(r *http.Request) ([]byte, int, error) {
	src, err := io.ReadAll(io.LimitReader(r.Body, maxProgramBytes+1))
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if len(src) > maxProgramBytes {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("program exceeds the %d-byte limit (a truncated flock could evaluate as a different program)", maxProgramBytes)
	}
	return src, 0, nil
}

// admit claims an admission slot (refusing rather than queueing, so an
// overloaded service degrades predictably and load-balancers can react);
// the returned release must be called when the evaluation finishes.
func (s *server) admit() (release func(), ok bool) {
	if s.sem == nil {
		return func() {}, true
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		return nil, false
	}
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST a flock program to /query"})
		return
	}
	src, status, err := readProgram(r)
	if err != nil {
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	q := r.URL.Query()
	strategy := q.Get("strategy")
	if strategy == "" {
		strategy = "direct"
	}
	timeout, err := requestTimeout(r, s.cfg.Timeout)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	db := s.snapshot()
	useCache := q.Get("cache") != "0"
	lintOnly := q.Get("lint") == "1"

	// One parse, shared by the linter, the canonicalizer, and the
	// evaluator (the source used to be parsed twice, once per consumer).
	fs, perr := datalog.ParseFlock(analysis.StripExplain(string(src)))
	if perr != nil {
		d := analysis.ParseDiagnostic(perr, analysis.Options{})
		if lintOnly {
			writeJSON(w, http.StatusOK, lintResponse{Diagnostics: []analysis.Diagnostic{d}, Errors: 1})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: perr.Error(), Diagnostics: []analysis.Diagnostic{d}})
		return
	}
	if lintOnly {
		// Lint-only traffic never competes for admission slots.
		writeJSON(w, http.StatusOK, lintResult(analysis.AnalyzeFlockSource(fs, s.analysisOptions(db, strategy))))
		return
	}
	if !validStrategy(strategy) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown strategy %q", strategy)})
		return
	}

	// Plan-cache lookup: a hit skips analysis, flock construction, and
	// planning. Alpha-equivalent programs share an entry via the
	// canonical text; the embedded data version keeps entries from
	// answering across mutations.
	canon := analysis.CanonicalProgram(fs)
	key := planKey(canon, strategy, db.Version())
	var ent *planEntry
	if useCache {
		if v, ok := s.plans.Get(key); ok {
			ent = v.(*planEntry)
		}
	}
	if ent == nil {
		// Static pre-admission check: the analyzer runs (schema-aware,
		// against this request's snapshot) before any evaluation work.
		// Error-severity findings reject the program with the structured
		// diagnostics; warnings ride along in the success payload.
		diags := analysis.AnalyzeFlockSource(fs, s.analysisOptions(db, strategy))
		if analysis.HasErrors(diags) {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error:       "flock rejected by static analysis; see diagnostics",
				Diagnostics: diags,
			})
			return
		}
		flock, err := core.NewWithViews(fs.Views, fs.Query, fs.Filter)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		if err := flock.CheckDatabase(db); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		ent = &planEntry{flock: flock, warnings: diags}
	}

	// Admission covers the expensive work only: planning and evaluation.
	release, ok := s.admit()
	if !ok {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: fmt.Sprintf("over the concurrent-query cap (%d); retry later", s.cfg.MaxQueries)})
		return
	}
	defer release()
	if ent.plan == nil && needsPlan(strategy) {
		plan, err := buildPlan(strategy, ent.flock, db)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		ent.plan = plan
	}
	if useCache {
		s.plans.Put(key, ent)
	}
	s.respondEval(w, r.Context(), db, ent, strategy, timeout, useCache, "")
}

// analysisOptions builds the analyzer options for one request: the
// schema snapshot plus, in coordinator mode, the QF024 shardability hook
// — a closure over the shard map and the requested strategy, so the
// analysis package never imports the cluster machinery. Pass strategy ""
// when none is known yet (prepare/restore paths): the hook then checks
// only the shard map's legality rules.
func (s *server) analysisOptions(db *storage.Database, strategy string) analysis.Options {
	opts := analysis.Options{DB: db}
	co := s.cfg.Cluster
	if co == nil {
		return opts
	}
	opts.Shardable = func(fs *datalog.FlockSource) (bool, string) {
		if strategy != "" && !memoStrategy(strategy) {
			return false, fmt.Sprintf("the %q strategy never scatters (it stays coordinator-local by design)", strategy)
		}
		flock, err := core.NewWithViews(fs.Views, fs.Query, fs.Filter)
		if err != nil {
			// Construction failures get their own error elsewhere; the
			// shardability pass has nothing to add.
			return true, ""
		}
		return cluster.Shardable(co.Map, flock.Params, flock.Query, flock.Filter)
	}
	return opts
}

// lintResult folds analyzer diagnostics into the ?lint=1 payload.
func lintResult(diags []analysis.Diagnostic) lintResponse {
	lr := lintResponse{Diagnostics: diags}
	if lr.Diagnostics == nil {
		lr.Diagnostics = []analysis.Diagnostic{}
	}
	for _, d := range diags {
		if d.Severity == analysis.SevError {
			lr.Errors++
		} else {
			lr.Warnings++
		}
	}
	return lr
}

// preparedFlock is one registry entry: the parse result and validated
// flock, retained so /invoke skips parse, lint, and construction.
type preparedFlock struct {
	fs       *datalog.FlockSource
	flock    *core.Flock
	canon    string
	warnings []analysis.Diagnostic
}

func (s *server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST a flock program to /prepare"})
		return
	}
	src, status, err := readProgram(r)
	if err != nil {
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	db := s.snapshot()
	fs, perr := datalog.ParseFlock(analysis.StripExplain(string(src)))
	if perr != nil {
		d := analysis.ParseDiagnostic(perr, analysis.Options{})
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: perr.Error(), Diagnostics: []analysis.Diagnostic{d}})
		return
	}
	diags := analysis.AnalyzeFlockSource(fs, s.analysisOptions(db, ""))
	if analysis.HasErrors(diags) {
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error:       "flock rejected by static analysis; see diagnostics",
			Diagnostics: diags,
		})
		return
	}
	flock, err := core.NewWithViews(fs.Views, fs.Query, fs.Filter)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if err := flock.CheckDatabase(db); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	canon := analysis.CanonicalProgram(fs)
	handle, existed := s.prepared.Register(canon, &preparedFlock{fs: fs, flock: flock, canon: canon, warnings: diags})
	if !existed {
		if err := s.persistPrepared(handle, string(src)); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("persisting prepared flock: %v", err)})
			return
		}
	}
	writeJSON(w, http.StatusOK, prepareResponse{
		Handle: handle, Params: flock.ParamColumns(), Existing: existed, Warnings: diags,
	})
}

// preparedFile is the sidecar in the data directory holding every
// prepared program's source, so registrations survive flockd restarts.
const preparedFile = "prepared.json"

// preparedRecord is one persisted prepared-flock entry.
type preparedRecord struct {
	Handle  string `json:"handle"`
	Program string `json:"program"`
}

// persistPrepared records a registration and, when serving a data
// directory, rewrites the prepared-flock sidecar (temp file + rename, so
// a crash mid-write leaves the previous snapshot intact).
func (s *server) persistPrepared(handle, src string) error {
	s.preparedMu.Lock()
	defer s.preparedMu.Unlock()
	s.preparedSrcs[handle] = src
	if s.cfg.Dir == nil {
		return nil
	}
	recs := make([]preparedRecord, 0, len(s.preparedSrcs))
	for h, p := range s.preparedSrcs {
		recs = append(recs, preparedRecord{Handle: h, Program: p})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Handle < recs[j].Handle })
	raw, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.cfg.Dir.Path(), preparedFile)
	tmp := path + ".tmp"
	// Sync the temp file before the rename: an unsynced rename can
	// atomically publish a hollow file, losing both snapshots. The
	// directory sync after the rename makes the swap itself durable.
	if err := storage.WriteFileSync(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return storage.SyncDir(s.cfg.Dir.Path())
}

// loadPrepared restores persisted prepared flocks from the data
// directory, re-validating each program against the freshly opened
// database — entries that no longer parse, lint clean, or match the
// schema are dropped with a warning rather than served stale.
func (s *server) loadPrepared(out io.Writer) {
	if s.cfg.Dir == nil {
		return
	}
	raw, err := os.ReadFile(filepath.Join(s.cfg.Dir.Path(), preparedFile))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(out, "flockd: ignoring prepared-flock sidecar: %v\n", err)
		}
		return
	}
	var recs []preparedRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		fmt.Fprintf(out, "flockd: ignoring prepared-flock sidecar: %v\n", err)
		return
	}
	db := s.snapshot()
	restored := 0
	for _, rec := range recs {
		p, err := s.validatePrepared(db, rec.Program)
		if err != nil {
			fmt.Fprintf(out, "flockd: dropping prepared flock %s: %v\n", rec.Handle, err)
			continue
		}
		handle, _ := s.prepared.Register(p.canon, p)
		s.preparedMu.Lock()
		s.preparedSrcs[handle] = rec.Program
		s.preparedMu.Unlock()
		restored++
	}
	if restored > 0 {
		fmt.Fprintf(out, "flockd: restored %d prepared flock(s)\n", restored)
	}
}

// validatePrepared runs the full prepare pipeline (parse, lint, flock
// construction, database check) on a persisted program.
func (s *server) validatePrepared(db *storage.Database, src string) (*preparedFlock, error) {
	fsrc, perr := datalog.ParseFlock(analysis.StripExplain(src))
	if perr != nil {
		return nil, perr
	}
	diags := analysis.AnalyzeFlockSource(fsrc, s.analysisOptions(db, ""))
	if analysis.HasErrors(diags) {
		return nil, fmt.Errorf("rejected by static analysis")
	}
	flock, err := core.NewWithViews(fsrc.Views, fsrc.Query, fsrc.Filter)
	if err != nil {
		return nil, err
	}
	if err := flock.CheckDatabase(db); err != nil {
		return nil, err
	}
	return &preparedFlock{fs: fsrc, flock: flock, canon: analysis.CanonicalProgram(fsrc), warnings: diags}, nil
}

// invokeRequest is the optional /invoke/{handle} JSON body. Threshold,
// when present, rebinds the prepared flock's filter threshold for this
// invocation — the interactive-mining knob: tightening it reuses the
// memoized extended answers, which are threshold-independent.
type invokeRequest struct {
	Threshold *json.Number `json:"threshold"`
}

func (s *server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST to /invoke/{handle}"})
		return
	}
	handle := strings.TrimPrefix(r.URL.Path, "/invoke/")
	v, ok := s.prepared.Get(handle)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no prepared flock %q (POST the program to /prepare first)", handle)})
		return
	}
	p := v.(*preparedFlock)

	q := r.URL.Query()
	strategy := q.Get("strategy")
	if strategy == "" {
		strategy = "direct"
	}
	if !validStrategy(strategy) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown strategy %q", strategy)})
		return
	}
	timeout, err := requestTimeout(r, s.cfg.Timeout)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	var req invokeRequest
	if len(strings.TrimSpace(string(body))) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad invoke body: %v", err)})
			return
		}
	}

	db := s.snapshot()
	useCache := q.Get("cache") != "0"
	flock, canon, fs := p.flock, p.canon, p.fs
	if req.Threshold != nil {
		tv, terr := thresholdValue(*req.Threshold)
		if terr != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad threshold binding: %v", terr)})
			return
		}
		spec := fs.Filter
		spec.Threshold = tv
		rebound, err := core.NewWithViews(fs.Views, fs.Query, spec)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad threshold binding: %v", err)})
			return
		}
		flock = rebound
		canon = analysis.CanonicalProgram(&datalog.FlockSource{Views: fs.Views, Query: fs.Query, Filter: spec})
	}

	key := planKey(canon, strategy, db.Version())
	var ent *planEntry
	if useCache {
		if v, ok := s.plans.Get(key); ok {
			ent = v.(*planEntry)
		}
	}
	if ent == nil {
		// The program was fully checked at prepare time; only the
		// database binding needs re-verification (the schema could in
		// principle drift across mutations).
		if err := flock.CheckDatabase(db); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		ent = &planEntry{flock: flock, warnings: p.warnings}
	}

	release, ok := s.admit()
	if !ok {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: fmt.Sprintf("over the concurrent-query cap (%d); retry later", s.cfg.MaxQueries)})
		return
	}
	defer release()
	if ent.plan == nil && needsPlan(strategy) {
		plan, err := buildPlan(strategy, ent.flock, db)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		ent.plan = plan
	}
	if useCache {
		s.plans.Put(key, ent)
	}
	s.respondEval(w, r.Context(), db, ent, strategy, timeout, useCache, handle)
}

// thresholdValue validates a rebound filter threshold. json.Number
// guarantees JSON-number syntax, but not a usable value: 1e999 overflows
// float64 to +Inf, and 1e-999 silently underflows to exactly 0 — which
// would rebind the filter to a different threshold than the client sent
// (COUNT >= 0 accepts the empty group, turning the answer infinite, and a
// MIN/MAX comparison against 0 quietly means something else). Both are
// refused here with the offending token in the message, instead of being
// evaluated or bounced with a misleading downstream error.
func thresholdValue(n json.Number) (storage.Value, error) {
	f, err := n.Float64()
	if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
		return storage.Value{}, fmt.Errorf("threshold %s does not fit a finite float64", n)
	}
	if f == 0 && !zeroLiteral(string(n)) {
		return storage.Value{}, fmt.Errorf("threshold %s underflows to zero", n)
	}
	v := storage.ParseValue(n.String())
	if !v.IsNumeric() {
		return storage.Value{}, fmt.Errorf("threshold %s is not numeric", n)
	}
	return v, nil
}

// zeroLiteral reports whether a JSON number token denotes exactly zero
// (no nonzero mantissa digit).
func zeroLiteral(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == 'e' || c == 'E':
			return true // the exponent cannot make a zero mantissa nonzero
		case c >= '1' && c <= '9':
			return false
		}
	}
	return true
}

// handleMutate appends CSV rows (no header; columns in relation order) to
// the named relation. The mutation is copy-on-write: a clone of the
// relation and catalog is built, the data-version counter is bumped, and
// the new database is published atomically — in-flight requests keep
// evaluating their snapshot, and every cache entry keyed on the old
// version becomes unreachable.
func (s *server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST CSV rows to /mutate/{relation}"})
		return
	}
	if s.cfg.Cluster != nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{
			Error: "mutations are not supported in coordinator mode: workers derive their shard partition from their own data load; update the data and restart the cluster"})
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/mutate/")
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProgramBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if len(body) > maxProgramBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("mutation exceeds the %d-byte limit", maxProgramBytes)})
		return
	}
	records, err := csv.NewReader(strings.NewReader(string(body))).ReadAll()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad CSV: %v", err)})
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	src, err := s.db.Source(name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	arity := src.Arity()
	rows := make([]storage.Tuple, 0, len(records))
	for i, rec := range records {
		if len(rec) != arity {
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("row %d has %d fields but relation %s has %d columns", i+1, len(rec), name, arity)})
			return
		}
		t := make(storage.Tuple, len(rec))
		for j, field := range rec {
			t[j] = storage.ParseValue(field)
		}
		rows = append(rows, t)
	}

	// The mutation is copy-on-write under either engine: a new relation
	// view (cloned in-memory relation, or a disk view with the rows in its
	// delta layer) is registered in a cloned catalog published atomically.
	newVersion := s.db.Version() + 1
	var (
		added    []storage.Tuple
		totalLen int
	)
	db := s.db.Clone()
	if drel, isDisk := src.(*storage.DiskRelation); isDisk {
		next, fresh, err := drel.WithDelta(rows)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		added, totalLen = fresh, next.Len()
		db.AddSource(next)
	} else {
		old, err := s.db.Relation(name)
		if err != nil {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		next := old.Clone()
		for _, t := range rows {
			if next.Insert(t) {
				added = append(added, t)
			}
		}
		totalLen = next.Len()
		db.Add(next)
	}
	// Durability before visibility: the delta lands on disk before the
	// bumped database is published, so a crash can lose an acknowledged
	// response but never serve rows that later vanish.
	if s.cfg.Dir != nil {
		if err := s.cfg.Dir.AppendDelta(name, added, newVersion); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("persisting mutation: %v", err)})
			return
		}
	}
	db.SetVersion(newVersion)
	s.db = db
	writeJSON(w, http.StatusOK, mutateResponse{
		Relation: name, Inserted: len(added), Rows: totalLen, Version: db.Version(),
	})
}

// respondEval runs one evaluation (shared by /query and /invoke) and
// writes the success or error payload.
func (s *server) respondEval(w http.ResponseWriter, rctx context.Context, db *storage.Database,
	ent *planEntry, strategy string, timeout time.Duration, useCache bool, handle string) {

	// The request context carries the client-disconnect signal; the wall
	// limit rides on it so either aborts the evaluation cooperatively.
	ctx := rctx
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	tr := &eval.Trace{}
	tr.Collector() // anchor the wall-clock/alloc baseline before evaluation
	// In coordinator mode each request gets its own scatter/gather
	// session, whose shard stats land in the merged report.
	var sess *cluster.Session
	if s.cfg.Cluster != nil {
		sess = s.cfg.Cluster.Session()
	}
	start := time.Now()
	answer, err := s.evaluate(ctx, db, ent, strategy, tr, useCache, sess)
	if err != nil {
		resp := errorResponse{Error: err.Error()}
		var se *cluster.ShardError
		if errors.As(err, &se) {
			resp.Shard = se.Shard
		}
		var sge *storage.SegmentError
		if errors.As(err, &sge) {
			resp.Relation = sge.Relation
		}
		writeJSON(w, statusForEvalError(err), resp)
		return
	}
	report := tr.Report(strategy, s.cfg.Workers, answer.Len())
	if report != nil {
		report.Caches = s.cacheStats(db)
		if sess != nil {
			report.Cluster = sess.Stats()
		}
	}
	obs.PublishReport(report)

	resp := queryResponse{
		Strategy:   strategy,
		Handle:     handle,
		AnswerRows: answer.Len(),
		Columns:    answer.Columns(),
		WallNs:     time.Since(start).Nanoseconds(),
		Warnings:   ent.warnings, // only warning/info diagnostics survive to here
		Report:     report,
	}
	resp.Rows = make([][]string, 0, answer.Len())
	for _, t := range answer.Sorted() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
		}
		resp.Rows = append(resp.Rows, row)
	}
	writeJSON(w, http.StatusOK, resp)
}

// errPanic marks an evaluation that died in an engine invariant panic.
var errPanic = errors.New("internal panic")

// buildPlan derives the §4.2 plan the strategy executes.
func buildPlan(strategy string, flock *core.Flock, db *storage.Database) (*core.Plan, error) {
	switch strategy {
	case "static":
		return planner.PlanStatic(flock, planner.NewEstimator(db), nil)
	case "exhaustive":
		return planner.PlanExhaustive(flock, planner.NewEstimator(db), nil)
	case "levelwise":
		return planner.PlanLevelwise(flock, 0)
	default:
		return nil, fmt.Errorf("strategy %q does not use a prebuilt plan", strategy)
	}
}

// evaluate runs one flock under the request's context and the server's
// resource budgets. Engine panics are recovered into errors so a bad
// query cannot take the service down.
func (s *server) evaluate(ctx context.Context, db *storage.Database, ent *planEntry,
	strategy string, tr *eval.Trace, useCache bool, sess *cluster.Session) (answer *storage.Relation, err error) {
	defer func() {
		if r := recover(); r != nil {
			answer, err = nil, fmt.Errorf("%w: %v", errPanic, r)
		}
	}()
	flock := ent.flock
	limits := eval.Limits{MaxTuples: s.cfg.MaxTuples, MaxRows: s.cfg.MaxRows}
	ev := &core.EvalOptions{Workers: s.cfg.Workers, Trace: tr, Ctx: ctx, Limits: limits}
	if useCache && s.memo != nil && memoStrategy(strategy) {
		ev.Memo = s.memo
		ev.MemoSalt = core.MemoContext(db, flock)
	}
	// The coordinator hook covers the strategies whose FILTER steps route
	// through the engine's group-by: naive is the definitional oracle (it
	// must not share machinery with what it checks) and dynamic re-decides
	// its plan from observed sizes, so both stay coordinator-local.
	if sess != nil && memoStrategy(strategy) {
		ev.FilterEval = sess.FilterEval
	}
	switch strategy {
	case "direct":
		return flock.Eval(db, ev)
	case "naive":
		return flock.EvalNaiveOpts(db, ev)
	case "static", "exhaustive", "levelwise":
		res, err := ent.plan.Execute(db, ev)
		if err != nil {
			return nil, err
		}
		return res.Answer, nil
	case "dynamic":
		res, err := planner.EvalDynamic(db, flock, &planner.DynamicOptions{
			Workers: s.cfg.Workers, Trace: tr, Ctx: ctx, Limits: limits,
		})
		if err != nil {
			return nil, err
		}
		return res.Answer, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", strategy)
	}
}

// requestTimeout resolves the effective wall limit: the server-wide limit,
// tightened (never loosened) by a ?timeout= duration.
func requestTimeout(r *http.Request, serverLimit time.Duration) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return serverLimit, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("bad timeout %q: %v", raw, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("timeout must be > 0 (got %v)", d)
	}
	if serverLimit > 0 && d > serverLimit {
		return serverLimit, nil
	}
	return d, nil
}

// statusForEvalError maps evaluation failures onto HTTP statuses: a dead
// worker shard is a bad gateway, deadline and cancellation are the
// gateway-timeout family, an exceeded resource budget is the client's
// query being too expensive, an unreadable segment and panics are 500s,
// and anything else (unknown strategy, plan errors) is a bad request.
func statusForEvalError(err error) int {
	var se *cluster.ShardError
	var sge *storage.SegmentError
	switch {
	case errors.As(err, &se):
		return http.StatusBadGateway
	case errors.As(err, &sge):
		return http.StatusInternalServerError
	case errors.Is(err, eval.ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, eval.ErrBudgetExceeded):
		return http.StatusUnprocessableEntity
	case errors.Is(err, errPanic):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort once the status is written
}
