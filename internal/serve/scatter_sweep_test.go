package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"queryflocks/internal/cluster"
	"queryflocks/internal/core"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// testCluster is a coordinator pipeline over httptest workers, each
// serving its shard's restriction of the database through the real
// /partial handler.
type testCluster struct {
	pipe  *Pipeline
	m     *cluster.Map
	addrs []string

	mu       sync.Mutex
	additive []bool // the Additive flag of every /partial request, any order
}

// startCluster shards db on rel:col; dead, when in range, is the index of
// a shard whose server is closed before the first request.
func startCluster(t *testing.T, db *storage.Database, rel string, col, shards, dead int) *testCluster {
	t.Helper()
	m, err := cluster.BuildMap(db, rel, col, shards)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{m: m, addrs: make([]string, shards)}
	for i := range tc.addrs {
		wdb, err := m.Restrict(db, i)
		if err != nil {
			t.Fatal(err)
		}
		worker := New(wdb, Config{Workers: 1, Timeout: 30 * time.Second}).PartialHandler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			raw, _ := io.ReadAll(r.Body)
			var req cluster.PartialRequest
			if json.Unmarshal(raw, &req) == nil {
				tc.mu.Lock()
				tc.additive = append(tc.additive, req.Additive)
				tc.mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(raw))
			worker(w, r)
		}))
		tc.addrs[i] = srv.URL
		if i == dead {
			srv.Close()
		} else {
			t.Cleanup(srv.Close)
		}
	}
	co := cluster.New(m, &cluster.Client{Shards: tc.addrs, Timeout: 30 * time.Second}, db.Names())
	co.AllowPartial = dead >= 0 && dead < shards
	tc.pipe = New(db, Config{Workers: 1, Cluster: co})
	return tc
}

// allAdditive reports whether every /partial request so far carried
// additive == want (false when there were none).
func (tc *testCluster) allAdditive(want bool) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, a := range tc.additive {
		if a != want {
			return false
		}
	}
	return len(tc.additive) > 0
}

// sweepDB is basketsDB plus what the cases the corpus lacks need: weights
// of both signs, an item → category relation, and — in the upper half of
// the basket range, so on another shard than the lower half under
// baskets:0 — every item stored as the float Equal to its int.
func sweepDB() *storage.Database {
	src := basketsDB().MustRelation("baskets")
	db := storage.NewDatabase()
	baskets := storage.NewRelation("baskets", src.Columns()...)
	signed := storage.NewRelation("signed", "BID", "W")
	cat := storage.NewRelation("cat", "Item", "C")
	for _, t := range src.Tuples() {
		b, item := t[0].AsInt(), t[1]
		if b >= 40 {
			item = storage.Float(float64(item.AsInt()))
		}
		baskets.InsertValues(t[0], item)
		signed.InsertValues(t[0], storage.Int(b%7-3))
		cat.InsertValues(t[1], storage.Int(t[1].AsInt()%3))
	}
	db.Add(baskets)
	db.Add(signed)
	db.Add(cat)
	return db
}

// TestScatterSweep is the shard-sweep oracle for the ID-space group
// states: 1, 2 and 4 shards × every scatter-eligible strategy × the
// examples/flocks corpus plus the cases it lacks, each answer row for row
// against the naive evaluator.
func TestScatterSweep(t *testing.T) {
	type sweepCase struct {
		name, src string
		db        *storage.Database
		rel       string // shard-by relation ("" = the default) and column
		col       int
		direct    bool // direct only: a-priori pruning is unsound for the filter
		scatters  bool // the direct strategy must scatter, not fall back
		additive  bool // ... and its COUNT-distinct must travel as counts
	}
	var cases []sweepCase
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "flocks", "*.flock"))
	if err != nil || len(files) == 0 {
		t.Fatalf("empty corpus: %v", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(file)
		c := sweepCase{name: name, src: string(raw), db: corpusDB(t, name)}
		switch name {
		case "fig2-baskets.flock":
			c.rel, c.scatters, c.additive = "baskets", true, true
		case "fig10-weighted.flock":
			c.rel, c.scatters = "baskets", true
		}
		cases = append(cases, c)
	}
	pairs := "baskets(B,$1) AND baskets(B,$2) AND $1 < $2"
	cases = append(cases,
		// The same basket holds items of one category on several shards:
		// the shards' value sets overlap, and summing counts would overcount.
		sweepCase{name: "count-distinct, not additive", db: sweepDB(), rel: "baskets", col: 1, scatters: true,
			src: "QUERY:\nanswer(B,I) :- baskets(B,I) AND cat(I,$c)\nFILTER:\nCOUNT(answer.B) >= 60\n"},
		sweepCase{name: "sum, negative weights", db: sweepDB(), rel: "baskets", direct: true, scatters: true,
			src: "QUERY:\nanswer(B,W) :- " + pairs + " AND signed(B,W)\nFILTER:\nSUM(answer.W) >= 3\n"},
		sweepCase{name: "min", db: sweepDB(), rel: "baskets", scatters: true,
			src: "QUERY:\nanswer(B,W) :- " + pairs + " AND signed(B,W)\nFILTER:\nMIN(answer.W) <= -3\n"},
		sweepCase{name: "max", db: sweepDB(), rel: "baskets", scatters: true,
			src: "QUERY:\nanswer(B,W) :- " + pairs + " AND signed(B,W)\nFILTER:\nMAX(answer.W) >= 3\n"},
		sweepCase{name: "count(*) over a union", db: sweepDB(), rel: "baskets", scatters: true,
			src: "QUERY:\nanswer(B,W) :- baskets(B,$1) AND signed(B,W)\nanswer(B,I) :- baskets(B,$1) AND baskets(B,I) AND $1 < I\n" +
				"FILTER:\nCOUNT(answer(*)) >= 25\n"},
		// Items are ints below basket 40 and floats from it on, so under
		// baskets:0 a parameter value is 3 on one shard and 3.0 on another.
		sweepCase{name: "int/float parameter across shards", db: sweepDB(), rel: "baskets", scatters: true, additive: true,
			src: "QUERY:\nanswer(B) :- " + pairs + "\nFILTER:\nCOUNT(answer.B) >= 5\n"},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			flock, err := core.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := flock.EvalNaive(c.db, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := rows(naive)
			if c.scatters && naive.Len() == 0 {
				t.Fatal("degenerate oracle: empty answer")
			}
			for _, shards := range []int{1, 2, 4} {
				tc := startCluster(t, c.db, c.rel, c.col, shards, -1)
				for _, st := range strategies {
					if !st.memo || st.side || (c.direct && st.name != "direct") {
						continue
					}
					out, err := tc.pipe.Query(c.src, Request{Strategy: st.name, NoCache: true, Trace: true})
					if err != nil {
						t.Fatalf("%d shards %s: %v", shards, st.name, err)
					}
					if got := rows(out.Answer); got != want {
						t.Errorf("%d shards %s disagrees with the naive oracle\ngot:\n%s\nwant:\n%s", shards, st.name, got, want)
					}
					cs := out.Report.Cluster
					if (cs.PartialBytes > 0) != (cs.Scattered > 0) || cs.Scattered+cs.Fallbacks == 0 {
						t.Errorf("%d shards %s: cluster block %+v", shards, st.name, cs)
					}
					if st.name == "direct" && c.scatters && (cs.Scattered != 1 || cs.Fallbacks != 0) {
						t.Errorf("%d shards: direct did not scatter: %+v", shards, cs)
					}
				}
				if c.scatters && !tc.allAdditive(c.additive) {
					t.Errorf("%d shards: /partial requests carried additive=%v, want all %v", shards, tc.additive, c.additive)
				}
			}
		})
	}
}

// TestScatterEmptyAndDeadShards: a shard that owns no tuples answers zero
// groups and merges as an identity; a dead shard under AllowPartial drops
// exactly its partition — the degraded answer is the naive answer over
// the live shards' data — and is named in the report.
func TestScatterEmptyAndDeadShards(t *testing.T) {
	db := storage.NewDatabase()
	rel := storage.NewRelation("baskets", "BID", "Item")
	for b := int64(0); b < 2; b++ {
		for i := int64(0); i < 6; i++ {
			rel.InsertValues(storage.Int(b), storage.Int(i))
		}
	}
	db.Add(rel)
	src := "QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\nFILTER:\nCOUNT(answer.B) >= 2\n"
	naive, err := core.MustParse(src).EvalNaive(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := startCluster(t, db, "baskets", 0, 4, -1).pipe.Query(src, Request{NoCache: true, Trace: true}) // 2 of 4 shards own nothing
	if err != nil || rows(out.Answer) != rows(naive) || naive.Len() == 0 {
		t.Errorf("empty shards: %v\ngot:\n%s\nwant:\n%s", err, rows(out.Answer), rows(naive))
	}

	db = basketsDB()
	const dead = 1
	tc := startCluster(t, db, "baskets", 0, 2, dead)
	live := storage.NewDatabase()
	kept := storage.NewRelation("baskets", "BID", "Item")
	for _, tp := range db.MustRelation("baskets").Tuples() {
		if tc.m.ShardOf(tp[0]) != dead {
			kept.Insert(tp)
		}
	}
	live.Add(kept)
	naive, err = core.MustParse(pairFlock).EvalNaive(live, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err = tc.pipe.Query(pairFlock, Request{NoCache: true, Trace: true})
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if got := rows(out.Answer); got != rows(naive) || naive.Len() == 0 {
		t.Errorf("degraded answer is not the live shard's answer\ngot:\n%s\nwant:\n%s", got, rows(naive))
	}
	if cs := out.Report.Cluster; !cs.Partial || len(cs.Failed) != 1 || cs.Failed[0] != tc.addrs[dead] || cs.PartialBytes == 0 {
		t.Errorf("cluster block %+v, want partial=true naming %s", cs, tc.addrs[dead])
	}
}

// TestHostilePartialBodies: a shard that answers 200 with a body the wire
// decoder rejects is a failed shard like any other — the query is the
// documented 502 naming it, or a partial:true answer under AllowPartial —
// never a panic, a hang or a wrong answer.
func TestHostilePartialBodies(t *testing.T) {
	db := basketsDB()
	m, err := cluster.BuildMap(db, "baskets", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]http.HandlerFunc, 2)
	for i := range workers {
		wdb, err := m.Restrict(db, i)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = New(wdb, Config{Workers: 1}).PartialHandler()
	}
	intLit := storage.Int(7).AppendPayload(nil)
	head := []byte("QFGS\x01\x00\x00\x01\x02") // wire v1, data v0, no report, counts, 2 params
	hostile := map[string]func(good []byte) []byte{
		"truncated":          func(good []byte) []byte { return good[:len(good)/2] },
		"wrong wire version": func(good []byte) []byte { good[4]++; return good },
		"trailing garbage":   func(good []byte) []byte { return append(good, 0) },
		"literal index out of range": func([]byte) []byte {
			return append(append(append([]byte(nil), head...), 1), append(intLit, 1, 5, 0, 0, 3)...)
		},
		"a sum where a count was asked": func([]byte) []byte {
			body, err := cluster.EncodePartial(&cluster.PartialResponse{States: &physical.GroupStates{
				Kind: physical.StateSum, Lits: []storage.Value{storage.Int(7)}, Params: [][]uint32{{0}, {0}},
				Done: []bool{false}, Sum: []float64{99}, Has: []bool{true}}})
			if err != nil {
				t.Error(err)
			}
			return body
		},
		"group count beyond the body": func([]byte) []byte {
			return append(append(append([]byte(nil), head...), 0), 0x80, 0x80, 0x80, 0x80, 0x80, 0x20)
		},
	}
	for name, corrupt := range hostile {
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			workers[1](rec, r)
			w.Write(corrupt(rec.Body.Bytes()))
		}))
		good := httptest.NewServer(workers[0])
		for _, allowPartial := range []bool{false, true} {
			co := cluster.New(m, &cluster.Client{Shards: []string{good.URL, bad.URL}, Timeout: 10 * time.Second}, db.Names())
			co.AllowPartial = allowPartial
			out, err := New(db, Config{Cluster: co}).Query(pairFlock, Request{NoCache: true, Trace: true})
			if allowPartial {
				if err != nil || !out.Report.Cluster.Partial || len(out.Report.Cluster.Failed) != 1 || out.Report.Cluster.Failed[0] != bad.URL {
					t.Errorf("%s, partial allowed: err %v, cluster %+v; want a partial answer naming %s", name, err, out.Report, bad.URL)
				}
				continue
			}
			if f := Classify(err); err == nil || f.Status != http.StatusBadGateway || f.Shard != bad.URL {
				t.Errorf("%s: err %v classified %+v; want a 502 naming %s", name, err, f, bad.URL)
			}
		}
		bad.Close()
		good.Close()
	}
}
