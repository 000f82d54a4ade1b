package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"queryflocks/internal/analysis"
	"queryflocks/internal/core"
	"queryflocks/internal/obs"
	"queryflocks/internal/storage"
)

// corpusMutations grows each examples/flocks program's data with 25 rows
// of values no dictionary has seen, arranged so one new parameter
// assignment passes the program's filter: (relation, CSV body) pairs.
func corpusMutations(name string) [][2]string {
	rows := func(format string, args ...func(i int) any) string {
		var b strings.Builder
		for i := 1; i <= 25; i++ {
			vals := make([]any, len(args))
			for j, a := range args {
				vals[j] = a(i)
			}
			fmt.Fprintf(&b, format+"\n", vals...)
		}
		return b.String()
	}
	id := func(base int) func(int) any { return func(i int) any { return base + i } }
	baskets := [2]string{"baskets", rows("%d,zzA", id(900000)) + rows("%d,zzB", id(900000))}
	patients := [][2]string{
		{"exhibits", rows("zp%d,zs", id(0))},
		{"treatments", rows("zp%d,zm", id(0))},
		{"diagnoses", rows("zp%d,zd", id(0))},
	}
	switch name {
	case "fig2-baskets.flock":
		return [][2]string{baskets}
	case "fig10-weighted.flock":
		return [][2]string{baskets, {"importance", rows("%d,5", id(900000))}}
	case "fig3-medical.flock", "multidisease-views.flock":
		return patients
	case "fig4-webwords.flock":
		return [][2]string{{"inTitle", rows("zd%d,zw1", id(0)) + rows("zd%d,zw2", id(0))}}
	case "fig6-graphpaths.flock":
		return [][2]string{{"arc", rows("zhub,zn%d", id(0)) + rows("zn%d,zc", id(0)) + "zc,zc2\nzc2,zc3\n"}}
	}
	return nil
}

// TestMemoDifferential drives the memo's ID-row extended plane through
// its traps, against the naive oracle: every examples/flocks program
// (fig4's union and the multidisease views included) × the memoizing
// strategies × workers 1, 2, 8 × memory and disk engines, each read cold,
// from the survivor plane, from the extended plane under a looser, a
// tighter and a Float-spelled threshold, and with the memo bypassed — then
// the same reads after a mutation whose rows carry values the dictionary
// has never seen.
func TestMemoDifferential(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "flocks", "*.flock"))
	if err != nil || len(files) == 0 {
		t.Fatalf("empty corpus: %v", err)
	}
	for _, file := range files {
		name := filepath.Base(file)
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		mutate := func(p *Pipeline) {
			for _, m := range corpusMutations(name) {
				if _, err := p.Mutate(m[0], m[1]); err != nil {
					t.Fatalf("%s: mutating %s: %v", name, m[0], err)
				}
			}
		}
		// The oracle's databases, before and after the mutation.
		ref := New(corpusDB(t, name), Config{})
		prog, err := ref.Compile(src, analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		versions := []*storage.Database{ref.Snapshot()}
		mutate(ref)
		versions = append(versions, ref.Snapshot())
		base := prog.Source.Filter.Threshold.AsFloat()
		thresholds := []storage.Value{storage.Null(), storage.Int(int64(base / 4)), storage.Int(int64(2 * base)), storage.Float(base)}
		oracles := map[string]string{}
		oracle := func(phase int, th storage.Value) string {
			key := fmt.Sprintf("%d/%s", phase, th)
			if want, ok := oracles[key]; ok {
				return want
			}
			spec := prog.Source.Filter
			if !th.IsNull() {
				spec.Threshold = th
			}
			f, err := core.NewWithViews(prog.Source.Views, prog.Source.Query, spec)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := f.EvalNaive(versions[phase], nil)
			if err != nil {
				t.Fatal(err)
			}
			oracles[key] = rows(rel)
			return oracles[key]
		}
		if oracle(0, storage.Null()) == oracle(1, storage.Null()) {
			t.Fatalf("%s: the mutation leaves the answer unchanged", name)
		}

		dir := t.TempDir()
		if err := storage.CreateDir(dir, corpusDB(t, name)); err != nil {
			t.Fatal(err)
		}
		for _, engine := range []storage.Engine{storage.EngineMemory, storage.EngineDisk} {
			for _, workers := range []int{1, 2, 8} {
				db, _, err := storage.OpenDir(dir, engine)
				if err != nil {
					t.Fatal(err)
				}
				pipe := New(db, Config{Workers: workers, PlanCacheSize: 64, MemoMaxBytes: 8 << 20})
				handle, _, _, err := pipe.Prepare(src)
				if err != nil {
					t.Fatal(err)
				}
				for phase := 0; phase < 2; phase++ {
					if phase == 1 {
						mutate(pipe)
					}
					for _, st := range []string{"direct", "static", "exhaustive", "levelwise"} {
						reads := []struct {
							label string
							th    storage.Value
							req   Request
						}{
							{"cold", storage.Null(), Request{Strategy: st}},
							{"survivor hit", storage.Null(), Request{Strategy: st}},
							{"looser", thresholds[1], Request{Strategy: st}},
							{"tighter", thresholds[2], Request{Strategy: st}},
							{"float threshold", thresholds[3], Request{Strategy: st}},
							{"cache=0", storage.Null(), Request{Strategy: st, NoCache: true}},
						}
						for _, r := range reads {
							out, err := pipe.Invoke(handle, r.th, r.req)
							if err != nil {
								t.Fatalf("%s engine %d workers %d phase %d %s %s: %v", name, engine, workers, phase, st, r.label, err)
							}
							if got, want := rows(out.Answer), oracle(phase, r.th); got != want {
								t.Errorf("%s engine %d workers %d phase %d %s %s disagrees with the naive oracle\ngot:\n%s\nwant:\n%s",
									name, engine, workers, phase, st, r.label, got, want)
							}
						}
					}
				}
				if cs := pipe.CacheStats(pipe.Snapshot()); cs.MemoExtHits == 0 || cs.MemoSurvHits == 0 {
					t.Errorf("%s engine %d workers %d: a memo plane was never hit: %+v", name, engine, workers, cs)
				}
			}
		}
	}
}

// TestMutatePurgesStaleMemo: a mutation drops every memo entry of the
// version it retires — as evictions, leaving the hit and miss counters
// alone — so after mutate → invoke the memo holds exactly what that invoke
// created, and a request still evaluating the old snapshot answers
// correctly without putting its results back.
func TestMutatePurgesStaleMemo(t *testing.T) {
	pipe := New(basketsDB(), Config{PlanCacheSize: 8, MemoMaxBytes: 8 << 20})
	handle, prog, _, err := pipe.Prepare(pairFlock)
	if err != nil {
		t.Fatal(err)
	}
	naive := func(db *storage.Database) string {
		rel, err := prog.Flock.EvalNaive(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rows(rel)
	}
	for _, th := range []storage.Value{storage.Null(), storage.Int(7), storage.Null()} {
		if _, err := pipe.Invoke(handle, th, Request{}); err != nil {
			t.Fatal(err)
		}
	}
	old := pipe.Snapshot()
	before := pipe.memo.Stats()
	if before.Entries != 3 { // one extended answer, two survivor sets
		t.Fatalf("before the mutation: %+v", before)
	}
	if _, err := pipe.Mutate("baskets", "900001,1\n900001,2\n900002,zz\n"); err != nil {
		t.Fatal(err)
	}
	purged := pipe.memo.Stats()
	if purged.Entries != 0 || purged.Bytes != 0 || purged.Evictions != before.Evictions+3 {
		t.Fatalf("the mutation left stale entries: %+v", purged)
	}
	if purged.ExtHits != before.ExtHits || purged.ExtMisses != before.ExtMisses ||
		purged.SurvHits != before.SurvHits || purged.SurvMiss != before.SurvMiss {
		t.Fatalf("the purge moved the traffic counters: %+v -> %+v", before, purged)
	}

	out, err := pipe.Invoke(handle, storage.Null(), Request{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows(out.Answer), naive(pipe.Snapshot()); got != want {
		t.Fatalf("post-mutation answer:\n%s\nwant:\n%s", got, want)
	}
	created := pipe.memo.Stats()
	if created.Entries != 2 || created.ExtMisses != purged.ExtMisses+1 || created.SurvMiss != purged.SurvMiss+1 {
		t.Fatalf("after mutate -> invoke the memo should hold that invoke's extended answer and survivors: %+v", created)
	}

	// A request that began on the old snapshot finishes after the purge.
	st, err := lookupStrategy("direct", true)
	if err != nil {
		t.Fatal(err)
	}
	late, err := pipe.execute(old, st, &entry{flock: prog.Flock}, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows(late.Answer), naive(old); got != want {
		t.Fatalf("in-flight old-version answer:\n%s\nwant:\n%s", got, want)
	}
	if st := pipe.memo.Stats(); st.Entries != created.Entries || st.Bytes != created.Bytes {
		t.Fatalf("the old-version request put its results back: %+v", st)
	}
}

// TestInvokeReportShowsMemoTree: a memoized evaluation reports the
// operators that ran. A cold invoke shows the compiled scan/join/group
// tree; a threshold-rebound invoke shows the group over a replay of the
// memoized rows, whose scan is marked as served from the memo; EXPLAIN
// ANALYZE renders both.
func TestInvokeReportShowsMemoTree(t *testing.T) {
	pipe := New(basketsDB(), Config{Workers: 1, PlanCacheSize: 8, MemoMaxBytes: 8 << 20})
	handle, _, _, err := pipe.Prepare(pairFlock)
	if err != nil {
		t.Fatal(err)
	}
	ops := func(r *obs.RunReport) (kinds []string, cached []obs.Op) {
		for _, e := range r.Steps {
			kinds = append(kinds, string(e.Op))
			if e.Cached {
				cached = append(cached, e.Op)
			}
		}
		return kinds, cached
	}
	cold, err := pipe.Invoke(handle, storage.Null(), Request{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	kinds, cached := ops(cold.Report)
	if got := strings.Join(kinds, ","); got != "scan,build,join,project,group,materialize" || len(cached) != 0 {
		t.Errorf("cold invoke report: ops %s, cached %v\n%s", got, cached, cold.Report.Tree())
	}
	rebound, err := pipe.Invoke(handle, storage.Int(3), Request{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	kinds, cached = ops(rebound.Report)
	if got := strings.Join(kinds, ","); got != "scan,group,materialize" || len(cached) != 1 || cached[0] != obs.OpScan {
		t.Errorf("extended-hit invoke report: ops %s, cached %v\n%s", got, cached, rebound.Report.Tree())
	}
	if tree := rebound.Report.Tree(); !strings.Contains(tree, "scan memo") || !strings.Contains(tree, "filter flock [COUNT(answer.B) >= 3]") {
		t.Errorf("EXPLAIN ANALYZE of the replay:\n%s", tree)
	}
}
