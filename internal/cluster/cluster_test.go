// The tests live outside the package so they can stand up real workers:
// /partial is served by the request pipeline (internal/serve), which
// imports this package.
package cluster_test

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	. "queryflocks/internal/cluster"
	"queryflocks/internal/core"
	"queryflocks/internal/eval"
	"queryflocks/internal/planner"
	"queryflocks/internal/serve"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// PartialHandler serves /partial over db the way a worker flockd does.
func PartialHandler(db *storage.Database) http.HandlerFunc {
	return serve.New(db, serve.Config{Workers: 1, Timeout: 10 * time.Second}).PartialHandler()
}

const pairFlock = "QUERY:\n" +
	"answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\n" +
	"FILTER:\nCOUNT(answer.B) >= 5\n"

func basketsDB(t *testing.T) *storage.Database {
	t.Helper()
	return workload.Baskets(workload.BasketConfig{Baskets: 120, Items: 15, MeanSize: 4, Skew: 0.8, Seed: 7})
}

// spawnWorkers serves each shard's restriction of db over httptest and
// returns the shard addresses in index order.
func spawnWorkers(t *testing.T, db *storage.Database, m *Map) []string {
	t.Helper()
	addrs := make([]string, m.Shards)
	for i := 0; i < m.Shards; i++ {
		restricted, err := m.Restrict(db, i)
		if err != nil {
			t.Fatalf("Restrict(%d): %v", i, err)
		}
		srv := httptest.NewServer(PartialHandler(restricted))
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

func newTestCoordinator(t *testing.T, db *storage.Database, shards int) (*Coordinator, []string) {
	t.Helper()
	m, err := BuildMap(db, "", 0, shards)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	addrs := spawnWorkers(t, db, m)
	client := &Client{Shards: addrs, Timeout: 10 * time.Second, Retries: 1, Backoff: 10 * time.Millisecond}
	return New(m, client, db.Names()), addrs
}

func TestParseShardBy(t *testing.T) {
	cases := []struct {
		in   string
		rel  string
		col  int
		fail bool
	}{
		{"", "", 0, false},
		{"baskets", "baskets", 0, false},
		{"baskets:1", "baskets", 1, false},
		{"a:b:2", "a:b", 2, false},
		{":1", "", 0, true},
		{"baskets:-1", "", 0, true},
		{"baskets:x", "", 0, true},
	}
	for _, c := range cases {
		rel, col, err := ParseShardBy(c.in)
		if c.fail {
			if err == nil {
				t.Errorf("ParseShardBy(%q): expected error", c.in)
			}
			continue
		}
		if err != nil || rel != c.rel || col != c.col {
			t.Errorf("ParseShardBy(%q) = %q,%d,%v; want %q,%d", c.in, rel, col, err, c.rel, c.col)
		}
	}
}

func TestShardMapRestrictPartitions(t *testing.T) {
	db := basketsDB(t)
	small := storage.NewRelation("kinds", "K")
	small.InsertValues(storage.Str("food"))
	db.Add(small)
	full := db.MustRelation("baskets")

	for _, shards := range []int{1, 2, 3, 4} {
		m, err := BuildMap(db, "baskets", 0, shards)
		if err != nil {
			t.Fatalf("BuildMap(%d): %v", shards, err)
		}
		total := 0
		union := storage.NewRelation("baskets", full.Columns()...)
		for i := 0; i < shards; i++ {
			r, err := m.Restrict(db, i)
			if err != nil {
				t.Fatalf("Restrict(%d/%d): %v", i, shards, err)
			}
			cut := r.MustRelation("baskets")
			total += cut.Len()
			for _, tp := range cut.Tuples() {
				if !union.Insert(tp) {
					t.Fatalf("shards %d: tuple %v assigned to more than one shard", shards, tp)
				}
				if got := m.ShardOf(tp[0]); got != i {
					t.Fatalf("shards %d: ShardOf(%v) = %d, on shard %d", shards, tp[0], got, i)
				}
			}
			if r.MustRelation("kinds").Len() != 1 {
				t.Errorf("shards %d: small relation not replicated to shard %d", shards, i)
			}
			if r.Version() != db.Version() {
				t.Errorf("shards %d: version %d != %d", shards, r.Version(), db.Version())
			}
		}
		if total != full.Len() || !union.Equal(full) {
			t.Errorf("shards %d: restrictions do not partition the relation (%d vs %d tuples)", shards, total, full.Len())
		}
	}
}

func TestShardMapDeterministic(t *testing.T) {
	db := basketsDB(t)
	a, _ := BuildMap(db, "baskets", 0, 3)
	b, _ := BuildMap(db, "baskets", 0, 3)
	for v := int64(-5); v < 200; v++ {
		if a.ShardOf(storage.Int(v)) != b.ShardOf(storage.Int(v)) {
			t.Fatalf("ShardOf(%d) differs between identically built maps", v)
		}
	}
	// Default relation selection picks the largest.
	m, err := BuildMap(db, "", 0, 2)
	if err != nil || m.Rel != "baskets" {
		t.Errorf("default shard relation = %q (%v), want baskets", m.Rel, err)
	}
}

// TestClusterOracleShardCounts is the tentpole oracle: the scattered
// answer must equal the single-node answer bit for bit at every shard
// count, for the direct strategy and for executed §4.2 plans.
func TestClusterOracleShardCounts(t *testing.T) {
	db := basketsDB(t)
	fl := core.MustParse(pairFlock)
	want, err := fl.Eval(db, nil)
	if err != nil {
		t.Fatalf("local Eval: %v", err)
	}
	if want.Len() == 0 {
		t.Fatal("degenerate oracle: empty local answer")
	}

	for _, shards := range []int{1, 2, 4} {
		co, _ := newTestCoordinator(t, db, shards)

		sess := co.Session()
		got, err := fl.Eval(db, &core.EvalOptions{FilterEval: sess.FilterEval})
		if err != nil {
			t.Fatalf("shards %d direct: %v", shards, err)
		}
		if !got.Equal(want) {
			t.Errorf("shards %d direct: answer differs (%d vs %d rows)", shards, got.Len(), want.Len())
		}
		st := sess.Stats()
		if st.Scattered != 1 || st.Fallbacks != 0 || st.Partial {
			t.Errorf("shards %d direct: stats %+v, want 1 scattered, 0 fallbacks", shards, st)
		}

		plan, err := planner.PlanStatic(fl, planner.NewEstimator(db), nil)
		if err != nil {
			t.Fatalf("PlanStatic: %v", err)
		}
		sess = co.Session()
		res, err := plan.Execute(db, &core.EvalOptions{FilterEval: sess.FilterEval})
		if err != nil {
			t.Fatalf("shards %d static: %v", shards, err)
		}
		got = res.Answer
		if !got.Equal(want) {
			t.Errorf("shards %d static: answer differs (%d vs %d rows)", shards, got.Len(), want.Len())
		}
		if st := sess.Stats(); st.Scattered+st.Fallbacks == 0 {
			t.Errorf("shards %d static: hook never consulted", shards)
		}
	}
}

// TestScatterStateSet covers the merge of a COUNT-distinct whose counted
// column is not the shard term: a weight W repeats across baskets of
// different shards, so the shards ship value sets (physical.StateSet),
// not counts. At this threshold, summing the shards' counts instead would
// admit groups the full data rejects.
func TestScatterStateSet(t *testing.T) {
	db := workload.Baskets(workload.BasketConfig{Baskets: 80, Items: 10, MeanSize: 4, Skew: 1.0, Seed: 11})
	if err := workload.AttachWeights(db, 9, 13); err != nil {
		t.Fatal(err)
	}
	f := core.MustParse("QUERY:\nanswer(B,W) :- baskets(B,$1) AND importance(B,W)\nFILTER:\nCOUNT(answer.W) >= 9\n")
	boxed, err := f.Eval(db, &core.EvalOptions{Exec: eval.ExecMaterialize})
	if err != nil {
		t.Fatal(err)
	}
	if boxed.Len() == 0 {
		t.Fatal("empty answer proves nothing")
	}
	for _, shards := range []int{2, 3} {
		co, _ := newTestCoordinator(t, db, shards)
		if ok, reason := Shardable(co.Map, f.Params, f.Query, f.Filter); !ok || Additive(co.Map, f.Query, f.Filter) {
			t.Fatalf("want a shardable, non-additive computation on %s (%s)", co.Map, reason)
		}
		sess := co.Session()
		got, err := f.Eval(db, &core.EvalOptions{FilterEval: sess.FilterEval})
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		if !got.Equal(boxed) {
			t.Fatalf("shards %d: answer differs from the boxed reference\ngot:\n%s\nwant:\n%s", shards, got.Dump(), boxed.Dump())
		}
		if st := sess.Stats(); st.Scattered != 1 || st.Fallbacks != 0 {
			t.Errorf("shards %d: stats %+v, want 1 scattered, 0 fallbacks", shards, st)
		}
	}
}

// TestEmptyShardsMerge: more shards than distinct shard-key values leaves
// some workers with no tuples; their empty partials must merge as
// identities (the S2 surface) and the answer must be unchanged.
func TestEmptyShardsMerge(t *testing.T) {
	db := storage.NewDatabase()
	rel := storage.NewRelation("baskets", "BID", "Item")
	for b := int64(0); b < 2; b++ {
		for i := int64(0); i < 6; i++ {
			rel.InsertValues(storage.Int(b), storage.Int(i))
		}
	}
	db.Add(rel)
	fl := core.MustParse(pairFlock)
	want, err := fl.Eval(db, nil)
	if err != nil {
		t.Fatalf("local Eval: %v", err)
	}
	co, _ := newTestCoordinator(t, db, 4) // only 2 distinct BIDs
	sess := co.Session()
	got, err := fl.Eval(db, &core.EvalOptions{FilterEval: sess.FilterEval})
	if err != nil {
		t.Fatalf("scattered Eval: %v", err)
	}
	if !got.Equal(want) {
		t.Errorf("answer differs with empty shards (%d vs %d rows)", got.Len(), want.Len())
	}
}

// TestIllegalShardingFallsBack: sharding baskets on the item column makes
// the pair flock unpartitionable (the two atoms bind different params at
// the shard column); the hook must decline and the local path must serve
// the exact answer.
func TestIllegalShardingFallsBack(t *testing.T) {
	db := basketsDB(t)
	fl := core.MustParse(pairFlock)
	want, err := fl.Eval(db, nil)
	if err != nil {
		t.Fatalf("local Eval: %v", err)
	}
	m, err := BuildMap(db, "baskets", 1, 2)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	addrs := spawnWorkers(t, db, m)
	co := New(m, &Client{Shards: addrs, Timeout: 5 * time.Second}, db.Names())
	sess := co.Session()
	got, err := fl.Eval(db, &core.EvalOptions{FilterEval: sess.FilterEval})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if !got.Equal(want) {
		t.Errorf("fallback answer differs (%d vs %d rows)", got.Len(), want.Len())
	}
	st := sess.Stats()
	if st.Scattered != 0 || st.Fallbacks == 0 {
		t.Errorf("stats %+v, want 0 scattered and >0 fallbacks", st)
	}
}

// TestShardableReasons pins the reason-returning form of the legality
// decision: each of the four partition rules (plus the filter check)
// must fail with a reason naming what blocked the scatter — the text the
// QF024 lint warning surfaces to flock authors.
func TestShardableReasons(t *testing.T) {
	db := basketsDB(t)
	sales := storage.NewRelation("sales", "B", "X")
	sales.InsertValues(storage.Int(1), storage.Int(2))
	db.Add(sales)

	cases := []struct {
		name   string
		flock  string
		rel    string
		col    int
		ok     bool
		reason string // substring of the expected reason
	}{
		{
			name:  "shardable",
			flock: pairFlock,
			rel:   "baskets", col: 0,
			ok: true,
		},
		{
			name:  "rule1-no-sharded-subgoal",
			flock: pairFlock,
			rel:   "sales", col: 0,
			ok: false, reason: "no positive subgoal of the sharded relation sales",
		},
		{
			name: "rule2-negated",
			flock: "QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 AND NOT sales(B,B)\n" +
				"FILTER:\nCOUNT(answer.B) >= 5\n",
			rel: "sales", col: 0,
			ok: false, reason: "negates the sharded relation sales",
		},
		{
			name:  "rule3-different-terms",
			flock: pairFlock,
			rel:   "baskets", col: 1,
			ok: false, reason: "binds different terms at the shard column",
		},
		{
			name: "rule4-var-not-in-head",
			flock: "QUERY:\nanswer(B) :- baskets(B,$1) AND sales(B,X)\n" +
				"FILTER:\nCOUNT(answer.B) >= 5\n",
			rel: "sales", col: 1,
			ok: false, reason: "does not reach the head",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fl := core.MustParse(tc.flock)
			m, err := BuildMap(db, tc.rel, tc.col, 2)
			if err != nil {
				t.Fatalf("BuildMap: %v", err)
			}
			ok, reason := Shardable(m, fl.Params, fl.Query, fl.Filter)
			if ok != tc.ok {
				t.Fatalf("Shardable = %v (%q), want %v", ok, reason, tc.ok)
			}
			if tc.ok && reason != "" {
				t.Errorf("shardable computation carries reason %q, want none", reason)
			}
			if !tc.ok && !strings.Contains(reason, tc.reason) {
				t.Errorf("reason %q does not mention %q", reason, tc.reason)
			}
		})
	}
}

// TestDeadShardStructuredError: a dead worker must surface as a typed
// ShardError naming the shard — never a hang or a silent wrong answer.
func TestDeadShardStructuredError(t *testing.T) {
	db := basketsDB(t)
	fl := core.MustParse(pairFlock)
	m, err := BuildMap(db, "baskets", 0, 2)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	addrs := spawnWorkers(t, db, m)
	dead := httptest.NewServer(nil)
	deadAddr := dead.URL
	dead.Close() // now refuses connections
	addrs[1] = deadAddr

	co := New(m, &Client{Shards: addrs, Timeout: time.Second, Retries: 1, Backoff: time.Millisecond}, db.Names())
	sess := co.Session()
	_, err = fl.Eval(db, &core.EvalOptions{FilterEval: sess.FilterEval})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError", err)
	}
	if se.Shard != deadAddr {
		t.Errorf("ShardError.Shard = %q, want %q", se.Shard, deadAddr)
	}
}

// TestAllowPartialDegraded: with AllowPartial the dead shard's partition
// is simply missing — the request succeeds, the answer is a subset of the
// full one (COUNT thresholds only lose support), and the report says so.
func TestAllowPartialDegraded(t *testing.T) {
	db := basketsDB(t)
	fl := core.MustParse(pairFlock)
	want, err := fl.Eval(db, nil)
	if err != nil {
		t.Fatalf("local Eval: %v", err)
	}
	m, err := BuildMap(db, "baskets", 0, 2)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	addrs := spawnWorkers(t, db, m)
	dead := httptest.NewServer(nil)
	deadAddr := dead.URL
	dead.Close()
	addrs[1] = deadAddr

	co := New(m, &Client{Shards: addrs, Timeout: time.Second, Retries: 0}, db.Names())
	co.AllowPartial = true
	sess := co.Session()
	got, err := fl.Eval(db, &core.EvalOptions{FilterEval: sess.FilterEval})
	if err != nil {
		t.Fatalf("degraded Eval: %v", err)
	}
	for _, tp := range got.Tuples() {
		if !want.Contains(tp) {
			t.Errorf("degraded answer invented tuple %v", tp)
		}
	}
	st := sess.Stats()
	if !st.Partial || len(st.Failed) != 1 || st.Failed[0] != deadAddr {
		t.Errorf("stats %+v, want partial=true failed=[%s]", st, deadAddr)
	}
}

// TestAllShardsDeadFailsEvenWhenPartialAllowed: degraded service still
// requires at least one live shard.
func TestAllShardsDeadFailsEvenWhenPartialAllowed(t *testing.T) {
	db := basketsDB(t)
	fl := core.MustParse(pairFlock)
	m, err := BuildMap(db, "baskets", 0, 2)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	dead := httptest.NewServer(nil)
	deadAddr := dead.URL
	dead.Close()
	co := New(m, &Client{Shards: []string{deadAddr, deadAddr}, Timeout: time.Second}, db.Names())
	co.AllowPartial = true
	sess := co.Session()
	_, err = fl.Eval(db, &core.EvalOptions{FilterEval: sess.FilterEval})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError", err)
	}
}

// TestRetryThenSucceed: transient 5xx responses are retried; the scatter
// succeeds once the shard recovers.
func TestRetryThenSucceed(t *testing.T) {
	db := basketsDB(t)
	fl := core.MustParse(pairFlock)
	want, err := fl.Eval(db, nil)
	if err != nil {
		t.Fatalf("local Eval: %v", err)
	}
	m, err := BuildMap(db, "baskets", 0, 1)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	restricted, err := m.Restrict(db, 0)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	inner := PartialHandler(restricted)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		inner(w, r)
	}))
	defer srv.Close()

	co := New(m, &Client{Shards: []string{srv.URL}, Timeout: 5 * time.Second, Retries: 2, Backoff: time.Millisecond}, db.Names())
	sess := co.Session()
	got, err := fl.Eval(db, &core.EvalOptions{FilterEval: sess.FilterEval})
	if err != nil {
		t.Fatalf("Eval after retry: %v", err)
	}
	if !got.Equal(want) {
		t.Errorf("retried answer differs")
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2 (one failure, one success)", calls.Load())
	}
}

// TestVersionMismatchFailsFast: a worker at another data version answers
// 409, which must not be retried (repeating it cannot succeed).
func TestVersionMismatchFailsFast(t *testing.T) {
	db := basketsDB(t)
	fl := core.MustParse(pairFlock)
	m, err := BuildMap(db, "baskets", 0, 1)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	restricted, err := m.Restrict(db, 0)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	stale := restricted.Clone()
	stale.SetVersion(99)
	var calls atomic.Int64
	inner := PartialHandler(stale)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		inner(w, r)
	}))
	defer srv.Close()

	co := New(m, &Client{Shards: []string{srv.URL}, Timeout: 5 * time.Second, Retries: 3, Backoff: time.Millisecond}, db.Names())
	sess := co.Session()
	_, err = fl.Eval(db, &core.EvalOptions{FilterEval: sess.FilterEval})
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ShardError", err)
	}
	if se.Status != http.StatusConflict {
		t.Errorf("status = %d, want 409", se.Status)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (4xx must not retry)", calls.Load())
	}
}

// TestScatterReusesConnections is the regression for the scatter client
// opening a TCP connection per shard per scatter: it closed response
// bodies it had not read to the end — the group states after one decoded
// value, an error body past its first 4 KiB — and net/http discards such
// a connection instead of pooling it.
func TestScatterReusesConnections(t *testing.T) {
	db := workload.Baskets(workload.BasketConfig{Baskets: 400, Items: 120, MeanSize: 6, Skew: 0.6, Seed: 11})
	fl := core.MustParse(pairFlock)
	m, err := BuildMap(db, "baskets", 0, 1)
	if err != nil {
		t.Fatalf("BuildMap: %v", err)
	}
	bigError := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		for i := 0; i < 64; i++ {
			w.Write([]byte(strings.Repeat("x", 1024)))
			w.(http.Flusher).Flush()
		}
	}
	for name, handler := range map[string]http.HandlerFunc{"states": PartialHandler(db), "error": bigError} {
		var opened atomic.Int64
		srv := httptest.NewUnstartedServer(handler)
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				opened.Add(1)
			}
		}
		srv.Start()
		transport := &http.Transport{}
		co := New(m, &Client{Shards: []string{srv.URL}, Timeout: 10 * time.Second, HTTP: &http.Client{Transport: transport}}, db.Names())
		for i := 0; i < 10; i++ {
			_, err := fl.Eval(db, &core.EvalOptions{FilterEval: co.Session().FilterEval})
			if (err != nil) != (name == "error") {
				t.Fatalf("%s scatter %d: err = %v", name, i, err)
			}
		}
		if n := opened.Load(); n != 1 {
			t.Errorf("%s: 10 scatters opened %d connections, want 1", name, n)
		}
		transport.CloseIdleConnections()
		srv.Close()
	}
}
