package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"queryflocks/internal/cluster"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

func basketsDB(t *testing.T) *storage.Database {
	t.Helper()
	return workload.Baskets(workload.BasketConfig{
		Baskets: 200, Items: 20, MeanSize: 4, Skew: 0.8, Seed: 4,
	})
}

// explosiveDB holds pairs(G,X): a triple self-join on G produces n³ rows
// per group — slow enough to outlive a short deadline.
func explosiveDB(t *testing.T, groups, n int) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	rel := storage.NewRelation("pairs", "G", "X")
	for g := 0; g < groups; g++ {
		for i := 0; i < n; i++ {
			rel.InsertValues(storage.Int(int64(g)), storage.Int(int64(i)))
		}
	}
	db.Add(rel)
	return db
}

const pairCountFlock = `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 5
`

// explosiveFlock's filter threshold exceeds any group's n³ result, so
// monotone short-circuiting never kicks in: the engine must produce and
// hold the full extended answer, which a tuple budget or deadline cuts
// short.
const explosiveFlock = `
QUERY:
answer(X,Y,Z) :- pairs($g,X) AND pairs($g,Y) AND pairs($g,Z)
FILTER:
COUNT(answer.X) >= 1000000
`

func postQuery(t *testing.T, ts *httptest.Server, query, body string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/query"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

func TestHealthzAndRels(t *testing.T) {
	ts := httptest.NewServer(newServer(basketsDB(t), serverConfig{}).handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/rels")
	if err != nil {
		t.Fatal(err)
	}
	var rels []relInfo
	if err := json.NewDecoder(resp.Body).Decode(&rels); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rels) != 1 || rels[0].Name != "baskets" || rels[0].Rows == 0 {
		t.Fatalf("unexpected /rels payload: %+v", rels)
	}
}

func TestQueryEvaluates(t *testing.T) {
	ts := httptest.NewServer(newServer(basketsDB(t), serverConfig{}).handler())
	defer ts.Close()

	status, body := postQuery(t, ts, "", pairCountFlock)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Strategy != "direct" || qr.AnswerRows == 0 || len(qr.Rows) != qr.AnswerRows {
		t.Fatalf("unexpected response: strategy=%q answer_rows=%d rows=%d", qr.Strategy, qr.AnswerRows, len(qr.Rows))
	}
	if len(qr.Columns) != 2 {
		t.Fatalf("expected 2 answer columns, got %v", qr.Columns)
	}
	if qr.Report == nil || len(qr.Report.Steps) == 0 {
		t.Fatalf("expected an operator report, got %+v", qr.Report)
	}
}

func TestQueryStrategiesAgree(t *testing.T) {
	ts := httptest.NewServer(newServer(basketsDB(t), serverConfig{}).handler())
	defer ts.Close()

	var baseline []byte
	for _, strat := range []string{"direct", "naive", "static", "exhaustive", "levelwise", "dynamic"} {
		status, body := postQuery(t, ts, "?strategy="+strat, pairCountFlock)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", strat, status, body)
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		rows, err := json.Marshal(qr.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = rows
			continue
		}
		if string(rows) != string(baseline) {
			t.Errorf("%s: answers diverge from direct:\n%s\nvs\n%s", strat, rows, baseline)
		}
	}
}

func TestQueryErrorsAre400(t *testing.T) {
	ts := httptest.NewServer(newServer(basketsDB(t), serverConfig{}).handler())
	defer ts.Close()

	cases := []struct {
		name, query, body string
	}{
		{"parse error", "", "QUERY:\nanswer(B) :- baskets(B,\nFILTER:\nCOUNT(answer.B) >= 1"},
		{"unknown relation", "", "QUERY:\nanswer(X) :- nosuch(X,$1)\nFILTER:\nCOUNT(answer.X) >= 1"},
		{"unknown strategy", "?strategy=bogus", pairCountFlock},
		{"bad timeout", "?timeout=banana", pairCountFlock},
	}
	for _, c := range cases {
		status, body := postQuery(t, ts, c.query, c.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d: %s", c.name, status, body)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: want 405, got %d", resp.StatusCode)
	}
}

// TestQueryLintRejectsBeforeEvaluation pins the pre-admission contract:
// an error-severity program gets a 400 whose payload carries structured
// diagnostics (stable code, severity, position) and never reaches the
// engine.
func TestQueryLintRejectsBeforeEvaluation(t *testing.T) {
	ts := httptest.NewServer(newServer(basketsDB(t), serverConfig{}).handler())
	defer ts.Close()

	unsafe := "QUERY:\nanswer(X) :- baskets(B,$1) AND X > 5\nFILTER:\nCOUNT(answer.X) >= 2"
	status, body := postQuery(t, ts, "", unsafe)
	if status != http.StatusBadRequest {
		t.Fatalf("want 400, got %d: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Error == "" || len(er.Diagnostics) == 0 {
		t.Fatalf("rejection must carry diagnostics: %s", body)
	}
	var found bool
	for _, d := range er.Diagnostics {
		if d.Code == "QF002" && d.Line > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("want a positioned QF002 diagnostic, got %s", body)
	}

	// Schema errors are caught the same way: the database is fixed, so
	// the analyzer runs its QF016 checks against it.
	status, body = postQuery(t, ts, "", "QUERY:\nanswer(X) :- nosuch(X,$1)\nFILTER:\nCOUNT(answer.X) >= 1")
	if status != http.StatusBadRequest || !strings.Contains(string(body), "QF016") {
		t.Errorf("missing relation should reject with QF016: %d %s", status, body)
	}
}

// TestQueryLintMode pins ?lint=1: diagnostics only, no evaluation.
func TestQueryLintMode(t *testing.T) {
	ts := httptest.NewServer(newServer(basketsDB(t), serverConfig{}).handler())
	defer ts.Close()

	status, body := postQuery(t, ts, "?lint=1", pairCountFlock)
	if status != http.StatusOK {
		t.Fatalf("want 200, got %d: %s", status, body)
	}
	var lr lintResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Errors != 0 || lr.Warnings != 0 || len(lr.Diagnostics) != 0 {
		t.Errorf("clean program should lint clean: %s", body)
	}
	if strings.Contains(string(body), "answer_rows") {
		t.Errorf("?lint=1 must not evaluate: %s", body)
	}

	unsafe := "QUERY:\nanswer(X) :- baskets(B,$1) AND X > 5\nFILTER:\nCOUNT(answer.X) >= 2"
	status, body = postQuery(t, ts, "?lint=1", unsafe)
	if status != http.StatusOK {
		t.Fatalf("lint mode reports, it does not reject: got %d", status)
	}
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Errors == 0 || len(lr.Diagnostics) == 0 {
		t.Errorf("unsafe program should report errors: %s", body)
	}
}

// TestQueryWarningsInResponse pins the non-fatal path: warning
// diagnostics ride along in the success payload next to the answer.
func TestQueryWarningsInResponse(t *testing.T) {
	ts := httptest.NewServer(newServer(basketsDB(t), serverConfig{}).handler())
	defer ts.Close()

	// The second subgoal is containment-redundant (QF009) and X is a
	// singleton (QF013) — warnings, so the query still evaluates.
	redundant := "QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,X)\nFILTER:\nCOUNT(answer.B) >= 5"
	status, body := postQuery(t, ts, "", redundant)
	if status != http.StatusOK {
		t.Fatalf("warnings must not reject: %d %s", status, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.AnswerRows == 0 {
		t.Error("query should still have evaluated")
	}
	codes := map[string]bool{}
	for _, d := range qr.Warnings {
		codes[d.Code] = true
	}
	if !codes["QF009"] {
		t.Errorf("want a QF009 warning in the response, got %+v", qr.Warnings)
	}

	// A clean program carries no warnings field at all.
	status, body = postQuery(t, ts, "", pairCountFlock)
	if status != http.StatusOK {
		t.Fatalf("clean: %d %s", status, body)
	}
	if strings.Contains(string(body), "\"warnings\"") {
		t.Errorf("clean program should omit warnings: %s", body)
	}
}

func TestQueryDeadlineIs504(t *testing.T) {
	ts := httptest.NewServer(newServer(explosiveDB(t, 6, 48), serverConfig{Timeout: time.Hour}).handler())
	defer ts.Close()

	start := time.Now()
	status, body := postQuery(t, ts, "?timeout=10ms", explosiveFlock)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d: %s", status, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}
	if !strings.Contains(string(body), "canceled") {
		t.Fatalf("error should name the cancellation: %s", body)
	}
}

func TestQueryBudgetIs422(t *testing.T) {
	ts := httptest.NewServer(newServer(explosiveDB(t, 4, 30), serverConfig{MaxTuples: 1000}).handler())
	defer ts.Close()

	status, body := postQuery(t, ts, "", explosiveFlock)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("want 422, got %d: %s", status, body)
	}
	if !strings.Contains(string(body), "budget") {
		t.Fatalf("error should name the budget: %s", body)
	}
}

func TestQueryMaxRowsIs422(t *testing.T) {
	ts := httptest.NewServer(newServer(basketsDB(t), serverConfig{MaxRows: 1}).handler())
	defer ts.Close()

	status, body := postQuery(t, ts, "", pairCountFlock)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("want 422, got %d: %s", status, body)
	}
}

func TestAdmissionCapIs503(t *testing.T) {
	srv := newServer(basketsDB(t), serverConfig{MaxQueries: 1})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	srv.sem <- struct{}{} // occupy the only slot
	status, body := postQuery(t, ts, "", pairCountFlock)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("want 503 while the slot is held, got %d: %s", status, body)
	}
	<-srv.sem
	status, body = postQuery(t, ts, "", pairCountFlock)
	if status != http.StatusOK {
		t.Fatalf("want 200 after the slot freed, got %d: %s", status, body)
	}
}

func TestRequestTimeoutTightensOnly(t *testing.T) {
	req := func(q string) *http.Request {
		r, err := http.NewRequest(http.MethodPost, "/query"+q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if d, err := requestTimeout(req(""), time.Minute); err != nil || d != time.Minute {
		t.Errorf("no param: got %v, %v", d, err)
	}
	if d, err := requestTimeout(req("?timeout=1s"), time.Minute); err != nil || d != time.Second {
		t.Errorf("tighten: got %v, %v", d, err)
	}
	if d, err := requestTimeout(req("?timeout=2h"), time.Minute); err != nil || d != time.Minute {
		t.Errorf("loosen must clamp to the server limit: got %v, %v", d, err)
	}
	if d, err := requestTimeout(req("?timeout=2h"), 0); err != nil || d != 2*time.Hour {
		t.Errorf("no server limit: got %v, %v", d, err)
	}
	if _, err := requestTimeout(req("?timeout=-1s"), 0); err == nil {
		t.Error("negative timeout must be rejected")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	// 6 x 96^3 extended tuples: several times what the engine gets through
	// before the request's own 200ms deadline, whatever the machine.
	srv := newServer(explosiveDB(t, 6, 96), serverConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	var drainLog strings.Builder
	go func() { served <- serveHTTP(ctx, ln, srv.handler(), 30*time.Second, &drainLog) }()

	// Start a query its 200ms deadline will end, then request shutdown
	// while it is in flight; the drain must let it finish and deliver its
	// response.
	url := fmt.Sprintf("http://%s/query?timeout=200ms", ln.Addr())
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "text/plain", strings.NewReader(explosiveFlock))
		if err != nil {
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()

	time.Sleep(50 * time.Millisecond) // let the request reach the engine
	cancel()

	select {
	case status := <-reqDone:
		if status != http.StatusGatewayTimeout {
			t.Fatalf("in-flight query got %d; shutdown must not sever it", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight query never completed")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after drain")
	}
	if !strings.Contains(drainLog.String(), "draining") {
		t.Errorf("expected a drain announcement, got %q", drainLog.String())
	}
}

func TestRunServesFromCSVDir(t *testing.T) {
	dir := t.TempDir()
	rel := basketsDB(t).MustRelation("baskets")
	if err := storage.WriteCSVFile(rel, dir+"/baskets.csv"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncWriter
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-data", dir, "-addr", "127.0.0.1:0"}, &out)
	}()

	// Wait for the listen announcement to learn the bound port.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no listen announcement; output: %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "flockd: listening on ") {
				addr = strings.Fields(line)[3]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post("http://"+addr+"/query", "text/plain", strings.NewReader(pairCountFlock))
	if err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.AnswerRows == 0 {
		t.Fatalf("status %d, answer_rows %d", resp.StatusCode, qr.AnswerRows)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after cancel")
	}
}

func TestFlagValidation(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{"-timeout", "-1s"},
		{"-drain", "0s"},
		{"-max-queries", "-1"},
		{"-max-tuples", "-1"},
		{"-max-rows", "-1"},
		{"-data", "/nonexistent-dir-for-flockd-test"},
	} {
		if err := run(ctx, args, &strings.Builder{}); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// syncWriter is a strings.Builder safe for the announce-then-poll pattern
// in TestRunServesFromCSVDir.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestQueryLintShardability pins the QF024 wiring: a coordinator-mode
// server's lint pass warns when a flock (or the requested strategy)
// forces a coordinator-local fallback, stays quiet for shardable
// programs, and never fires on a single-node server.
func TestQueryLintShardability(t *testing.T) {
	db := basketsDB(t)
	m, err := cluster.BuildMap(db, "baskets", 0, 2)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	// No scatter happens under ?lint=1, so the coordinator needs no
	// client or workers — only the shard map the hook closes over.
	co := cluster.New(m, nil, []string{"baskets"})
	ts := httptest.NewServer(newServer(db, serverConfig{Cluster: co}).handler())
	defer ts.Close()

	lint := func(t *testing.T, query, body string) lintResponse {
		t.Helper()
		status, payload := postQuery(t, ts, query, body)
		if status != http.StatusOK {
			t.Fatalf("want 200, got %d: %s", status, payload)
		}
		var lr lintResponse
		if err := json.Unmarshal(payload, &lr); err != nil {
			t.Fatal(err)
		}
		return lr
	}
	qf024 := func(lr lintResponse) string {
		for _, d := range lr.Diagnostics {
			if d.Code == "QF024" {
				return d.Message
			}
		}
		return ""
	}

	// Shardable flock, scattering strategy: no warning.
	if lr := lint(t, "?lint=1", pairCountFlock); qf024(lr) != "" || lr.Warnings != 0 {
		t.Errorf("shardable flock should lint clean in cluster mode: %+v", lr.Diagnostics)
	}

	// A strategy that never scatters warns regardless of the flock.
	for _, strat := range []string{"naive", "dynamic"} {
		lr := lint(t, "?lint=1&strategy="+strat, pairCountFlock)
		msg := qf024(lr)
		if msg == "" || !strings.Contains(msg, strat) {
			t.Errorf("strategy %s: want QF024 naming the strategy, got %+v", strat, lr.Diagnostics)
		}
	}

	// Atoms binding different terms at the shard column (rule 3): the
	// coordinator would fall back, and lint says why.
	rule3 := `
QUERY:
answer(B,C) :- baskets(B,$1) AND baskets(C,$2)
FILTER:
COUNT(answer.B) >= 5
`
	if msg := qf024(lint(t, "?lint=1", rule3)); !strings.Contains(msg, "different terms at the shard column") {
		t.Errorf("rule-3 violation should surface QF024 with its reason, got %q", msg)
	}

	// The same programs on a single-node server: no QF024, ever.
	single := httptest.NewServer(newServer(db, serverConfig{}).handler())
	defer single.Close()
	ts, single = single, ts // reuse lint() against the single-node server
	if msg := qf024(lint(t, "?lint=1&strategy=naive", rule3)); msg != "" {
		t.Errorf("single-node lint must not report QF024: %q", msg)
	}
}
