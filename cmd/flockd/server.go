package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"queryflocks/internal/analysis"
	"queryflocks/internal/obs"
	"queryflocks/internal/serve"
	"queryflocks/internal/storage"
)

// maxProgramBytes is the request-body cap for posted programs and
// mutations; bodies are read with one spare byte so the pipeline can
// detect — and refuse with 413 — an over-limit program instead of
// evaluating a truncated one.
const maxProgramBytes = serve.MaxProgramBytes

// serverConfig bounds every query the service runs; see serve.Config.
type serverConfig = serve.Config

// errPanic marks an evaluation that died in an engine invariant panic.
var errPanic = serve.ErrPanic

// server is the HTTP face of the request pipeline (internal/serve): it
// decodes requests, calls the pipeline, and encodes outcomes — the
// endpoints and statuses are listed in the package comment. Parsing,
// linting, caching, admission, planning, evaluation and the error →
// status mapping all live behind serve.Pipeline.
//
// /query and /invoke accept ?strategy= (serve.Strategies, default
// direct), ?timeout= (a Go duration that may only tighten the server-wide
// limit), and ?cache=0 (bypass the plan cache and memo for this request);
// /query?lint=1 runs only the analyzer and returns its diagnostics
// without evaluating (and without consuming an admission slot).
type server struct {
	pipe    *serve.Pipeline
	sem     chan struct{} // the pipeline's admission slots; nil when uncapped
	timeout time.Duration // the server-wide wall limit ?timeout= may tighten
}

func newServer(db *storage.Database, cfg serverConfig) *server {
	pipe := serve.New(db, cfg)
	return &server{pipe: pipe, sem: pipe.Slots, timeout: cfg.Timeout}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/rels", s.handleRels)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/query", post("POST a flock program to /query", s.handleQuery))
	mux.HandleFunc("/prepare", post("POST a flock program to /prepare", s.handlePrepare))
	mux.HandleFunc("/invoke/", post("POST to /invoke/{handle}", s.handleInvoke))
	mux.HandleFunc("/mutate/", post("POST CSV rows to /mutate/{relation}", s.handleMutate))
	// Every flockd serves the read-only partial-group-state endpoint, so
	// any instance can be enlisted as a worker shard.
	mux.HandleFunc("/partial", s.pipe.PartialHandler())
	return mux
}

// post adapts an endpoint — decode the request, call the pipeline, return
// the success payload or an error — into a handler: every method but POST
// is a 405 carrying usage, and every error is encoded through the
// pipeline's one status mapping.
func post(usage string, endpoint func(r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: usage})
			return
		}
		payload, err := endpoint(r)
		if err != nil {
			f := serve.Classify(err)
			writeJSON(w, f.Status, f)
			return
		}
		writeJSON(w, http.StatusOK, payload)
	}
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
	db := s.pipe.Snapshot()
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
	writeJSON(w, http.StatusOK, s.pipe.CacheStats(s.pipe.Snapshot()))
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

// errorResponse is the payload of every non-200 outcome.
type errorResponse = serve.Failure

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
type mutateResponse = serve.Mutation

// readBody reads a request body with one byte to spare past the cap.
func readBody(r *http.Request) (string, error) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxProgramBytes+1))
	return string(raw), err
}

// evalRequest decodes the query parameters q that /query and /invoke share.
func (s *server) evalRequest(r *http.Request, q url.Values) (serve.Request, error) {
	timeout, err := requestTimeout(r, s.timeout)
	return serve.Request{
		Ctx: r.Context(), Strategy: q.Get("strategy"), Timeout: timeout,
		NoCache: q.Get("cache") == "0", Trace: true,
	}, err
}

func (s *server) handleQuery(r *http.Request) (any, error) {
	src, err := readBody(r)
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	req, err := s.evalRequest(r, q)
	if err != nil {
		return nil, err
	}
	if q.Get("lint") == "1" {
		diags, err := s.pipe.Lint(src, req.Strategy)
		return lintResult(diags), err
	}
	out, err := s.pipe.Query(src, req)
	return outcomeResponse("", out), err
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

func (s *server) handlePrepare(r *http.Request) (any, error) {
	src, err := readBody(r)
	if err != nil {
		return nil, err
	}
	handle, prog, existed, err := s.pipe.Prepare(src)
	if err != nil {
		return nil, err
	}
	return prepareResponse{
		Handle: handle, Params: prog.Flock.ParamColumns(), Existing: existed, Warnings: prog.Warnings,
	}, nil
}

// invokeRequest is the optional /invoke/{handle} JSON body.
type invokeRequest struct {
	Threshold *json.Number `json:"threshold"`
}

func (s *server) handleInvoke(r *http.Request) (any, error) {
	handle := strings.TrimPrefix(r.URL.Path, "/invoke/")
	req, err := s.evalRequest(r, r.URL.Query())
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		return nil, err
	}
	var ireq invokeRequest
	if len(strings.TrimSpace(string(body))) > 0 {
		if err := json.Unmarshal(body, &ireq); err != nil {
			return nil, fmt.Errorf("bad invoke body: %v", err)
		}
	}
	var threshold storage.Value // null: keep the prepared threshold
	if ireq.Threshold != nil {
		if threshold, err = thresholdValue(*ireq.Threshold); err != nil {
			return nil, fmt.Errorf("bad threshold binding: %v", err)
		}
	}
	out, err := s.pipe.Invoke(handle, threshold, req)
	return outcomeResponse(handle, out), err
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
// the named relation; see serve.Pipeline.Mutate.
func (s *server) handleMutate(r *http.Request) (any, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	return s.pipe.Mutate(strings.TrimPrefix(r.URL.Path, "/mutate/"), body)
}

// outcomeResponse renders one evaluation's outcome (shared by /query and
// /invoke) with the answer rows in sorted order; nil for a failed one.
func outcomeResponse(handle string, out serve.Outcome) *queryResponse {
	if out.Answer == nil {
		return nil
	}
	resp := &queryResponse{
		Strategy:   out.Strategy,
		Handle:     handle,
		AnswerRows: out.Answer.Len(),
		Columns:    out.Answer.Columns(),
		WallNs:     out.Wall.Nanoseconds(),
		Warnings:   out.Warnings, // only warning/info diagnostics survive to here
		Report:     out.Report,
	}
	resp.Rows = make([][]string, 0, out.Answer.Len())
	for _, t := range out.Answer.Sorted() {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = v.String()
		}
		resp.Rows = append(resp.Rows, row)
	}
	return resp
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
	return serve.Tighten(serverLimit, d), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort once the status is written
}
