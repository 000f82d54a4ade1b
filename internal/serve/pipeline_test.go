package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"queryflocks/internal/analysis"
	"queryflocks/internal/cluster"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/planner"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

const pairFlock = "QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\nFILTER:\nCOUNT(answer.B) >= 5\n"

func basketsDB() *storage.Database {
	return workload.Baskets(workload.BasketConfig{Baskets: 80, Items: 10, MeanSize: 4, Skew: 1.0, Seed: 11})
}

// corpusDB generates the workload database an examples/flocks program
// runs over.
func corpusDB(t *testing.T, name string) *storage.Database {
	t.Helper()
	switch name {
	case "fig2-baskets.flock":
		return basketsDB()
	case "fig10-weighted.flock":
		db := basketsDB()
		if err := workload.AttachWeights(db, 9, 13); err != nil {
			t.Fatal(err)
		}
		return db
	case "fig3-medical.flock", "multidisease-views.flock":
		return workload.Medical(workload.DefaultMedical(150, 17))
	case "fig4-webwords.flock":
		return workload.Web(workload.DefaultWeb(60, 19))
	case "fig6-graphpaths.flock":
		return workload.Graph(workload.DefaultGraph(40, 23))
	}
	t.Fatalf("no workload generator for corpus program %s", name)
	return nil
}

// rows renders a relation row for row, in sorted order.
func rows(rel *storage.Relation) string {
	var b strings.Builder
	for _, t := range rel.Sorted() {
		for _, v := range t {
			b.WriteString(v.String())
			b.WriteByte('\t')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFrontEndParity is the one front-end parity table: every program of
// examples/flocks × every strategy of the table × every entry point
// (library Run, Query, Prepare + Invoke with and without a threshold
// rebind, the threshold also spelled as a Float) × caches on (cold, then
// hot) and bypassed must agree with the naive oracle row for row.
// TestMemoDifferential adds engines, worker counts and mutations for the
// memoizing strategies.
func TestFrontEndParity(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "flocks")
	files, err := filepath.Glob(filepath.Join(dir, "*.flock"))
	if err != nil || len(files) == 0 {
		t.Fatalf("empty corpus: %v", err)
	}
	for _, file := range files {
		name := filepath.Base(file)
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src, db := string(raw), corpusDB(t, name)
			pipe := New(db, Config{Workers: 2, PlanCacheSize: 64, MemoMaxBytes: 8 << 20})
			prog, err := pipe.Compile(src, analysis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			oracle := func(f *core.Flock) string {
				rel, err := f.EvalNaive(db, nil)
				if err != nil {
					t.Fatal(err)
				}
				return rows(rel)
			}
			want := oracle(prog.Flock)

			// A tighter threshold for the rebind column, with its own oracle.
			spec := prog.Source.Filter
			tighter := storage.ParseValue(storage.Float(spec.Threshold.AsFloat() + 1).String())
			spec.Threshold = tighter
			rebound, err := core.NewWithViews(prog.Source.Views, prog.Source.Query, spec)
			if err != nil {
				t.Fatal(err)
			}
			wantTighter := oracle(rebound)

			// The plan strategy's side input: the level-wise plan, through
			// its Fig. 5 rendering.
			levelwise, err := planner.PlanLevelwise(prog.Flock, 0)
			if err != nil {
				t.Fatal(err)
			}
			planSpec, err := datalog.ParsePlan(levelwise.String())
			if err != nil {
				t.Fatal(err)
			}
			handle, _, _, err := pipe.Prepare(src)
			if err != nil {
				t.Fatal(err)
			}

			for _, st := range strategies {
				for _, mode := range []string{"cold", "hot", "cache=0"} {
					req := Request{Strategy: st.name, NoCache: mode == "cache=0", Side: Side{Depth: 2, Plan: planSpec}}
					check := func(entry, want string, out Outcome, err error) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s %s %s: %v", st.name, mode, entry, err)
						}
						if got := rows(out.Answer); got != want {
							t.Errorf("%s %s %s disagrees with the naive oracle\ngot:\n%s\nwant:\n%s", st.name, mode, entry, got, want)
						}
					}
					if st.name == "cascade" && len(prog.Flock.Query) > 1 {
						continue // the planner builds cascade plans for single-rule flocks only
					}
					out, err := pipe.Run(prog, req)
					check("Run", want, out, err)
					if st.side {
						if _, err := pipe.Query(src, req); err == nil {
							t.Errorf("%s: a served request must not name a side-input strategy", st.name)
						}
						continue
					}
					out, err = pipe.Query(src, req)
					check("Query", want, out, err)
					out, err = pipe.Invoke(handle, storage.Null(), req)
					check("Invoke", want, out, err)
					out, err = pipe.Invoke(handle, tighter, req)
					check("Invoke+threshold", wantTighter, out, err)
					// The original threshold spelled as a Float: another
					// survivor key over the same extended answer.
					out, err = pipe.Invoke(handle, storage.Float(prog.Source.Filter.Threshold.AsFloat()), req)
					check("Invoke+float threshold", want, out, err)
				}
			}
			if cs := pipe.CacheStats(db); cs.PlanHits == 0 || cs.MemoExtHits == 0 || cs.PreparedFlocks != 1 {
				t.Errorf("the hot column never hit the caches: %+v", cs)
			}
		})
	}
}

// TestStrategyTableConsistent: a strategy executes a prebuilt plan exactly
// when Plan builds one, and the served set is the side-input-free rows.
func TestStrategyTableConsistent(t *testing.T) {
	db := basketsDB()
	f := core.MustParse(pairFlock)
	served := strings.Join(Strategies(), ",")
	for _, st := range strategies {
		plan, err := Plan(st.name, f, db, Side{Depth: 1, Plan: &datalog.PlanSpec{}})
		if st.name != "plan" && err != nil { // an empty PlanSpec is rightly refused
			t.Fatalf("%s: %v", st.name, err)
		}
		if st.name != "plan" && (plan != nil) != st.plans {
			t.Errorf("%s: plans=%v but Plan returned %v", st.name, st.plans, plan)
		}
		if strings.Contains(","+served+",", ","+st.name+",") == st.side {
			t.Errorf("%s: side=%v but served set is %s", st.name, st.side, served)
		}
	}
}

// explosiveDB holds pairs(G,X): a triple self-join on G produces n³ rows
// per group, and explosiveFlock's threshold exceeds that, so monotone
// short-circuiting never kicks in — the engine must hold the full extended
// answer, which a tuple budget or deadline cuts short.
func explosiveDB(groups, n int) *storage.Database {
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

const (
	explosiveQuery  = "answer(X,Y,Z) :- pairs($1,X) AND pairs($1,Y) AND pairs($1,Z)"
	explosiveFilter = "COUNT(answer.X) >= 1000000"
	explosiveFlock  = "QUERY:\n" + explosiveQuery + "\nFILTER:\n" + explosiveFilter + "\n"
)

// tagsDB holds a string column; SUM over it panics inside the engine.
func tagsDB() *storage.Database {
	db := basketsDB()
	tags := storage.NewRelation("tags", "BID", "Tag")
	tags.InsertValues(storage.Int(1), storage.Str("x"))
	db.Add(tags)
	return db
}

const panicFlock = "QUERY:\nanswer(T) :- tags($1,T)\nFILTER:\nSUM(answer.T) >= 1\n"

// badSegmentDB opens a disk database whose baskets column file is truncated.
func badSegmentDB(t *testing.T) *storage.Database {
	t.Helper()
	dir := t.TempDir()
	if err := storage.CreateDir(dir, basketsDB()); err != nil {
		t.Fatal(err)
	}
	db, _, err := storage.OpenDir(dir, storage.EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "baskets.cols")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestStatusTable drives every failure class through the single
// error-mapping function.
func TestStatusTable(t *testing.T) {
	full := New(basketsDB(), Config{MaxQueries: 1})
	full.Slots <- struct{}{}

	db := basketsDB()
	m, err := cluster.BuildMap(db, "baskets", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dead := cluster.New(m, &cluster.Client{Shards: []string{"127.0.0.1:1"}, Timeout: time.Second}, db.Names())

	query := func(p *Pipeline, src string) func() error {
		return func() error { _, err := p.Query(src, Request{}); return err }
	}
	cases := []struct {
		name   string
		run    func() error
		status int
		check  func(Failure) bool
	}{
		{"parse error", query(New(db, Config{}), "QUERY:\nanswer(B) :- baskets(B,\nFILTER:\nCOUNT(answer.B) >= 1"),
			http.StatusBadRequest, func(f Failure) bool { return len(f.Diagnostics) == 1 && f.Diagnostics[0].Code == "QF001" }},
		{"lint rejection", query(New(db, Config{}), "QUERY:\nanswer(X) :- baskets(B,$1) AND X > 5\nFILTER:\nCOUNT(answer.X) >= 2"),
			http.StatusBadRequest, func(f Failure) bool { return analysis.HasErrors(f.Diagnostics) }},
		{"unknown strategy", func() error { _, err := New(db, Config{}).Query(pairFlock, Request{Strategy: "bogus"}); return err },
			http.StatusBadRequest, nil},
		{"unknown handle", func() error { _, err := New(db, Config{}).Invoke("nope", storage.Null(), Request{}); return err },
			http.StatusNotFound, nil},
		{"oversized program", query(New(db, Config{}), pairFlock+strings.Repeat("\n", MaxProgramBytes)),
			http.StatusRequestEntityTooLarge, nil},
		{"tuple budget", query(New(explosiveDB(4, 30), Config{MaxTuples: 1000}), explosiveFlock),
			http.StatusUnprocessableEntity, nil},
		{"row budget", query(New(db, Config{MaxRows: 1}), pairFlock),
			http.StatusUnprocessableEntity, nil},
		{"admission", query(full, pairFlock), http.StatusServiceUnavailable, nil},
		{"deadline", query(New(explosiveDB(6, 48), Config{Timeout: time.Nanosecond}), explosiveFlock),
			http.StatusGatewayTimeout, nil},
		// The dynamic strategy's first legal barrier follows the third join:
		// it is the operator holding the tuples when either bound trips.
		{"tuple budget at a decision barrier", func() error {
			_, err := New(explosiveDB(4, 30), Config{MaxTuples: 1000}).Query(explosiveFlock, Request{Strategy: "dynamic"})
			return err
		}, http.StatusUnprocessableEntity, nil},
		{"deadline inside a dynamic evaluation", func() error {
			_, err := New(explosiveDB(6, 48), Config{Timeout: 20 * time.Millisecond}).Query(explosiveFlock, Request{Strategy: "dynamic"})
			return err
		}, http.StatusGatewayTimeout, nil},
		{"bad segment", query(New(badSegmentDB(t), Config{}), pairFlock),
			http.StatusInternalServerError, func(f Failure) bool { return f.Relation == "baskets" }},
		{"dead shard", query(New(db, Config{Cluster: dead}), pairFlock),
			http.StatusBadGateway, func(f Failure) bool { return f.Shard == "127.0.0.1:1" }},
		{"engine panic", query(New(tagsDB(), Config{}), panicFlock),
			http.StatusInternalServerError, func(f Failure) bool { return strings.Contains(f.Error, ErrPanic.Error()) }},
		{"unknown relation to mutate", func() error { _, err := New(db, Config{}).Mutate("nosuch", "1,2"); return err },
			http.StatusNotFound, nil},
		{"mutate on a coordinator", func() error { _, err := New(db, Config{Cluster: dead}).Mutate("baskets", "1,2"); return err },
			http.StatusNotImplemented, nil},
		{"stale partial", func() error {
			_, err := New(db, Config{}).Partial(context.Background(), &cluster.PartialRequest{Version: 99})
			return err
		}, http.StatusConflict, nil},
	}
	for _, c := range cases {
		err := c.run()
		if err == nil {
			t.Errorf("%s: expected an error", c.name)
			continue
		}
		f := Classify(err)
		if f.Status != c.status || f.Error == "" || (c.check != nil && !c.check(f)) {
			t.Errorf("%s: got %d %+v, want %d", c.name, f.Status, f, c.status)
		}
	}
}

// postPartial posts a /partial request for the given computation to h.
func postPartial(t *testing.T, h http.Handler, query, filter string) (int, Failure) {
	t.Helper()
	body, err := json.Marshal(cluster.PartialRequest{Query: query, Params: []string{"1"}, Filter: filter, Name: "flock"})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/partial", bytes.NewReader(body)))
	var f Failure
	if rec.Code != http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &f); err != nil || f.Error == "" {
			t.Fatalf("status %d with an unstructured body: %s", rec.Code, rec.Body)
		}
	}
	return rec.Code, f
}

// TestPartialRunsInsideTheBounds is the regression for /partial evaluating
// outside the server's bounds: a worker's tuple budget must apply (422),
// an engine panic must answer a structured 500 instead of dropping the
// connection, and an unreadable segment must keep its relation.
func TestPartialRunsInsideTheBounds(t *testing.T) {
	budgeted := New(explosiveDB(4, 30), Config{MaxTuples: 1000}).PartialHandler()
	if status, _ := postPartial(t, budgeted, explosiveQuery, explosiveFilter); status != http.StatusUnprocessableEntity {
		t.Errorf("over-budget /partial: status %d, want 422", status)
	}
	status, f := postPartial(t, New(tagsDB(), Config{}).PartialHandler(), "answer(T) :- tags($1,T)", "SUM(answer.T) >= 1")
	if status != http.StatusInternalServerError || !strings.Contains(f.Error, ErrPanic.Error()) {
		t.Errorf("panicking /partial: status %d %+v, want a structured 500", status, f)
	}
	status, f = postPartial(t, New(badSegmentDB(t), Config{}).PartialHandler(), "answer(B) :- baskets(B,$1)", "COUNT(answer.B) >= 1")
	if status != http.StatusInternalServerError || f.Relation != "baskets" {
		t.Errorf("bad-segment /partial: status %d %+v, want a 500 naming baskets", status, f)
	}
}

// TestPartialBudgetIsNotRetried: the scatter client retries 5xx answers,
// so a deterministic budget failure must come back as a 4xx — one call,
// surfaced by the coordinator as a shard error.
func TestPartialBudgetIsNotRetried(t *testing.T) {
	db := explosiveDB(4, 30)
	m, err := cluster.BuildMap(db, "pairs", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	worker := New(db, Config{MaxTuples: 1000}).PartialHandler()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		worker(w, r)
	}))
	defer srv.Close()
	co := cluster.New(m, &cluster.Client{Shards: []string{srv.URL}, Timeout: 5 * time.Second, Retries: 3, Backoff: time.Millisecond}, db.Names())
	_, err = New(db, Config{Cluster: co}).Query(explosiveFlock, Request{})
	if err == nil {
		t.Fatal("an over-budget shard must fail the query")
	}
	if f := Classify(err); f.Status != http.StatusBadGateway || !strings.Contains(f.Error, "422") {
		t.Fatalf("want a shard error carrying the worker's 422, got %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1 (a budget failure must not be retried)", calls.Load())
	}
}

// TestAdmissionAndDrainUnderRace saturates a capped pipeline from many
// goroutines: every request either holds a slot or is refused with 503,
// never more than the cap run at once, and all slots drain afterwards.
func TestAdmissionAndDrainUnderRace(t *testing.T) {
	const limit = 2
	pipe := New(basketsDB(), Config{MaxQueries: limit, PlanCacheSize: 8, MemoMaxBytes: 1 << 20})
	handle, _, _, err := pipe.Prepare(pairFlock)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var ok, refused atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var err error
				if (g+i)%2 == 0 {
					_, err = pipe.Query(pairFlock, Request{NoCache: i%3 == 0})
				} else {
					_, err = pipe.Invoke(handle, storage.Null(), Request{Strategy: "static"})
				}
				switch {
				case err == nil:
					ok.Add(1)
				case Classify(err).Status == http.StatusServiceUnavailable:
					refused.Add(1)
				default:
					t.Errorf("unexpected failure: %v", err)
				}
				if n := len(pipe.Slots); n > limit {
					t.Errorf("%d evaluations admitted past the cap of %d", n, limit)
				}
			}
		}(g)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no request was admitted")
	}
	if len(pipe.Slots) != 0 {
		t.Errorf("%d admission slots leaked", len(pipe.Slots))
	}
	t.Logf("admitted %d, refused %d", ok.Load(), refused.Load())
}
