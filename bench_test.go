// Package queryflocks_test holds the benchmark harness of the
// reproduction: one benchmark group per paper figure/claim (E1–E8, see
// DESIGN.md §4 and EXPERIMENTS.md), plus ablations of the design choices
// DESIGN.md calls out (dynamic filter ratio, group-size statistics).
// cmd/flockbench runs the same experiments at full scale with wall-clock
// tables; these benches give stable, allocation-aware numbers at a
// reduced scale.
//
// Run with: go test -bench=. -benchmem
package queryflocks_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"queryflocks/internal/apriori"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/paper"
	"queryflocks/internal/planner"
	"queryflocks/internal/serve"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// Lazily built, shared workloads (building them per-benchmark would
// dominate the timings).
var (
	onceWords   sync.Once
	wordsDB     *storage.Database
	onceBaskets sync.Once
	basketsDB   *storage.Database
	onceMedical sync.Once
	medicalDB   *storage.Database
	onceWeb     sync.Once
	webDB       *storage.Database
	onceGraph   sync.Once
	graphDB     *storage.Database
)

func words(b *testing.B) *storage.Database {
	b.Helper()
	onceWords.Do(func() {
		wordsDB = workload.Baskets(workload.BasketConfig{
			Baskets: 2_000, Items: 12_000, MeanSize: 15, Skew: 1.0, Seed: 1998,
		})
	})
	return wordsDB
}

func baskets(b *testing.B) *storage.Database {
	b.Helper()
	onceBaskets.Do(func() {
		basketsDB = workload.Baskets(workload.BasketConfig{
			Baskets: 4_000, Items: 1_600, MeanSize: 8, Skew: 1.0, Seed: 1998,
		})
		if err := workload.AttachWeights(basketsDB, 10, 1999); err != nil {
			panic(err)
		}
	})
	return basketsDB
}

func medical(b *testing.B) *storage.Database {
	b.Helper()
	onceMedical.Do(func() {
		medicalDB = workload.Medical(workload.MedicalConfig{
			Patients: 4_000, Diseases: 50, Symptoms: 4_000, Medicines: 100,
			SymptomsPerDisease: 4, MedicinesPerDisease: 2,
			ExhibitRate: 0.6, ExtraMedicines: 2.0, NoiseRate: 3.0,
			SideEffects: []workload.SideEffect{
				{Medicine: 3, Symptom: 1, Rate: 0.4},
				{Medicine: 7, Symptom: 5, Rate: 0.3},
			},
			Seed: 1998,
		})
	})
	return medicalDB
}

func web(b *testing.B) *storage.Database {
	b.Helper()
	onceWeb.Do(func() {
		webDB = workload.Web(workload.WebConfig{
			Docs: 2_000, Vocab: 10_000, TitleWords: 7, AnchorsPerDoc: 3,
			AnchorWords: 6, Skew: 1.0, Seed: 1998,
		})
	})
	return webDB
}

func graph(b *testing.B) *storage.Database {
	b.Helper()
	onceGraph.Do(func() {
		graphDB = workload.Graph(workload.GraphConfig{
			Nodes: 8_000, OutDegree: 2, Hubs: 160, HubDegree: 30,
			DeadEndFrac: 0.55, Seed: 1998,
		})
	})
	return graphDB
}

// benchFlockDirect times direct flock evaluation.
func benchFlockDirect(b *testing.B, db *storage.Database, f *core.Flock, opts *core.EvalOptions) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Eval(db, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlan times executing a prepared plan.
func benchPlan(b *testing.B, db *storage.Database, plan *core.Plan) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Execute(db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func mustPlan(b *testing.B, f *core.Flock, sets [][]datalog.Param) *core.Plan {
	b.Helper()
	plan, err := planner.PlanWithParamSets(f, sets)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// --- E1: Fig. 1 / §1.3 — direct SQL pair count vs a-priori rewrite ------

func BenchmarkE1_Fig1_SQLDirect(b *testing.B) {
	benchFlockDirect(b, words(b), paper.MarketBasket(20), nil)
}

func BenchmarkE1_AprioriRewrite(b *testing.B) {
	f := paper.MarketBasket(20)
	benchPlan(b, words(b), mustPlan(b, f, [][]datalog.Param{{"1"}, {"2"}}))
}

func BenchmarkE1_SQLDirect_Support5pct(b *testing.B) {
	benchFlockDirect(b, words(b), paper.MarketBasket(100), nil)
}

func BenchmarkE1_AprioriRewrite_Support5pct(b *testing.B) {
	f := paper.MarketBasket(100)
	benchPlan(b, words(b), mustPlan(b, f, [][]datalog.Param{{"1"}, {"2"}}))
}

// --- E2: Fig. 2 — market-basket flock vs classic a-priori ----------------

func BenchmarkE2_Fig2_FlockDirect(b *testing.B) {
	benchFlockDirect(b, baskets(b), paper.MarketBasket(20), nil)
}

func BenchmarkE2_Fig2_ItemFilterPlan(b *testing.B) {
	f := paper.MarketBasket(20)
	benchPlan(b, baskets(b), mustPlan(b, f, [][]datalog.Param{{"1"}, {"2"}}))
}

func BenchmarkE2_Fig2_ClassicApriori(b *testing.B) {
	ds, err := apriori.FromBaskets(baskets(b).MustRelation("baskets"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apriori.FrequentPairs(ds, 20)
	}
}

func BenchmarkE2_Fig2_NaivePairCount(b *testing.B) {
	ds, err := apriori.FromBaskets(baskets(b).MustRelation("baskets"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apriori.NaivePairs(ds, 20)
	}
}

// --- E3: Figs. 3 & 5 — medical flock under the Example 3.2 plan space ----

func BenchmarkE3_Fig5_NoFilter(b *testing.B) {
	f := paper.Medical(20)
	benchPlan(b, medical(b), mustPlan(b, f, nil))
}

func BenchmarkE3_Fig5_OkS(b *testing.B) {
	f := paper.Medical(20)
	benchPlan(b, medical(b), mustPlan(b, f, [][]datalog.Param{{"s"}}))
}

func BenchmarkE3_Fig5_OkM(b *testing.B) {
	f := paper.Medical(20)
	benchPlan(b, medical(b), mustPlan(b, f, [][]datalog.Param{{"m"}}))
}

func BenchmarkE3_Fig5_Both(b *testing.B) {
	f := paper.Medical(20)
	benchPlan(b, medical(b), mustPlan(b, f, [][]datalog.Param{{"s"}, {"m"}}))
}

func BenchmarkE3_Fig5_PairFilter(b *testing.B) {
	f := paper.Medical(20)
	benchPlan(b, medical(b), mustPlan(b, f, [][]datalog.Param{{"s", "m"}}))
}

// --- E4: Fig. 4 / §3.4 — union flock ------------------------------------

func BenchmarkE4_Fig4_NoFilter(b *testing.B) {
	f := paper.WebWords(20)
	benchPlan(b, web(b), mustPlan(b, f, nil))
}

func BenchmarkE4_Fig4_UnionFilter(b *testing.B) {
	f := paper.WebWords(20)
	benchPlan(b, web(b), mustPlan(b, f, [][]datalog.Param{{"1"}, {"2"}}))
}

// --- E5: Figs. 6–7 — cascade depth sweep ---------------------------------

func benchCascade(b *testing.B, depth int) {
	f := paper.Path(3, 20)
	plan, err := planner.PlanCascade(f, depth)
	if err != nil {
		b.Fatal(err)
	}
	benchPlan(b, graph(b), plan)
}

func BenchmarkE5_Fig7_CascadeDepth0(b *testing.B) { benchCascade(b, 0) }
func BenchmarkE5_Fig7_CascadeDepth1(b *testing.B) { benchCascade(b, 1) }
func BenchmarkE5_Fig7_CascadeDepth2(b *testing.B) { benchCascade(b, 2) }
func BenchmarkE5_Fig7_CascadeDepth3(b *testing.B) { benchCascade(b, 3) }

// --- E6: Figs. 8–9 / Ex. 4.4 — dynamic vs static -------------------------

func BenchmarkE6_Fig9_Dynamic(b *testing.B) {
	db := medical(b)
	f := paper.Medical(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.EvalDynamic(db, f, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6_Fig9_BestStatic(b *testing.B) {
	f := paper.Medical(20)
	benchPlan(b, medical(b), mustPlan(b, f, [][]datalog.Param{{"s"}, {"m"}}))
}

// --- E7: Fig. 10 / §5 — monotone SUM filter ------------------------------

func BenchmarkE7_Fig10_WeightedDirect(b *testing.B) {
	benchFlockDirect(b, baskets(b), paper.WeightedBasket(110), nil)
}

func BenchmarkE7_Fig10_WeightedPlan(b *testing.B) {
	f := paper.WeightedBasket(110)
	benchPlan(b, baskets(b), mustPlan(b, f, [][]datalog.Param{{"1"}, {"2"}}))
}

// --- E8: Ex. 3.2 — subquery enumeration ----------------------------------

func BenchmarkE8_SubqueryEnum(b *testing.B) {
	r := paper.Medical(20).Query[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if subs := core.EnumerateSubqueries(r); len(subs) != 8 {
			b.Fatalf("got %d subqueries", len(subs))
		}
	}
}

func BenchmarkE8_SafetyCheck(b *testing.B) {
	r := paper.Medical(20).Query[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !datalog.IsSafe(r) {
			b.Fatal("medical rule should be safe")
		}
	}
}

// --- Parallel execution layer ---------------------------------------------

// BenchmarkParallelJoin sweeps the worker knob over the join- and
// group-dominated Fig. 1 word-pair flock, direct strategy. Workers=1 is
// the sequential baseline; at w > 1 the computation runs as w in-process
// parts of its first parameter, each joined and grouped on its own
// goroutine over the whole relation, and the parts' answers are appended
// with nothing to merge. On a one-core host every count sits at or above
// the baseline.
func BenchmarkParallelJoin(b *testing.B) {
	db := words(b)
	f := paper.MarketBasket(20)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchFlockDirect(b, db, f, &core.EvalOptions{Workers: w})
		})
	}
}

// BenchmarkDynamicBarrier prices the §4.4 decision barriers: the two
// flocks whose dynamic evaluation buffers and reduces the full item-pair
// intermediate (examples/flocks fig2 and fig10), on the database shape of
// bench/'s batch.corpus workload at its seed, sequential. The direct
// sub-benchmark of the same flock is the floor the barriers are judged
// against: dynamic does direct's work plus its decisions.
func BenchmarkDynamicBarrier(b *testing.B) {
	db := workload.Baskets(workload.BasketConfig{Baskets: 2000, Items: 1000, MeanSize: 8, Skew: 1.0, Seed: 1998})
	if err := workload.AttachWeights(db, 10, 1999); err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"fig2-baskets", "fig10-weighted"} {
		src, err := os.ReadFile(filepath.Join("examples", "flocks", name+".flock"))
		if err != nil {
			b.Fatal(err)
		}
		f := core.MustParse(string(src))
		b.Run(name+"/dynamic", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := planner.EvalDynamic(db, f, &planner.DynamicOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/direct", func(b *testing.B) {
			benchFlockDirect(b, db, f, &core.EvalOptions{Workers: 1})
		})
	}
}

// BenchmarkMemoColdAfterMutate prices the serving memo's two FILTER-
// computation paths on examples/flocks fig3 over the medical relations of
// bench/'s database shape at its seed, disk engine, sequential. cold: a
// 5-row mutation of exhibits (outside the timer) retires the memo, then an
// invoke recomputes and captures the extended answer; memo-B/entry is then
// the memo's byte estimate per entry (one extended answer, one survivor
// set). ext-hit: an invoke under a threshold no earlier run used replays
// the memoized extended answer.
func BenchmarkMemoColdAfterMutate(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("examples", "flocks", "fig3-medical.flock"))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := storage.CreateDir(dir, workload.Medical(workload.DefaultMedical(5000, 2000))); err != nil {
		b.Fatal(err)
	}
	setup := func(b *testing.B) (*serve.Pipeline, string) {
		db, _, err := storage.OpenDir(dir, storage.EngineDisk)
		if err != nil {
			b.Fatal(err)
		}
		pipe := serve.New(db, serve.Config{Workers: 1, PlanCacheSize: 64, MemoMaxBytes: 64 << 20})
		handle, _, _, err := pipe.Prepare(string(src))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pipe.Invoke(handle, storage.Null(), serve.Request{}); err != nil {
			b.Fatal(err)
		}
		return pipe, handle
	}
	b.Run("cold", func(b *testing.B) {
		pipe, handle := setup(b)
		rng := rand.New(rand.NewSource(1998))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var rows strings.Builder
			for j := 0; j < 5; j++ {
				fmt.Fprintf(&rows, "%d,s%d\n", rng.Intn(5000), rng.Intn(200))
			}
			if _, err := pipe.Mutate("exhibits", rows.String()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := pipe.Invoke(handle, storage.Null(), serve.Request{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		cs := pipe.CacheStats(pipe.Snapshot())
		b.ReportMetric(float64(cs.MemoBytes)/float64(cs.MemoEntries), "memo-B/entry")
	})
	b.Run("ext-hit", func(b *testing.B) {
		pipe, handle := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pipe.Invoke(handle, storage.Int(int64(21+i)), serve.Request{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations ------------------------------------------------------------

// Dynamic filter-ratio sensitivity (§4.4's filter/don't-filter threshold).
func benchDynamicRatio(b *testing.B, ratio float64) {
	db := medical(b)
	f := paper.Medical(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.EvalDynamic(db, f, &planner.DynamicOptions{FilterRatio: ratio, RefilterRatio: ratio / 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DynamicRatio02(b *testing.B) { benchDynamicRatio(b, 0.2) }
func BenchmarkAblation_DynamicRatio10(b *testing.B) { benchDynamicRatio(b, 1.0) }
func BenchmarkAblation_DynamicRatio50(b *testing.B) { benchDynamicRatio(b, 5.0) }

// Static planner end to end: estimation + plan construction + execution.
func BenchmarkAblation_PlanStaticEndToEnd(b *testing.B) {
	db := medical(b)
	f := paper.Medical(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := planner.NewEstimator(db)
		plan, err := planner.PlanStatic(f, est, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Execute(db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Symmetric shared filter (§3.1/footnote 3) vs two independent singleton
// steps: the shared variant computes one survivor relation instead of two.
func BenchmarkAblation_SharedFilter(b *testing.B) {
	f := paper.MarketBasket(20)
	plan, err := planner.PlanSharedFilter(f, "1")
	if err != nil {
		b.Fatal(err)
	}
	benchPlan(b, baskets(b), plan)
}

func BenchmarkAblation_TwoSingletonFilters(b *testing.B) {
	f := paper.MarketBasket(20)
	benchPlan(b, baskets(b), mustPlan(b, f, [][]datalog.Param{{"1"}, {"2"}}))
}

// Exhaustive plan search end to end (cost model + 2^candidates plans).
func BenchmarkAblation_PlanExhaustiveEndToEnd(b *testing.B) {
	db := medical(b)
	f := paper.Medical(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := planner.NewEstimator(db)
		plan, err := planner.PlanExhaustive(f, est)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Execute(db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Naive generate-and-test reference semantics (tiny data; the point is the
// asymptotic gap to the direct evaluator, not the absolute number).
func BenchmarkAblation_NaiveReference(b *testing.B) {
	db := workload.Baskets(workload.BasketConfig{
		Baskets: 60, Items: 12, MeanSize: 3, Skew: 0.8, Seed: 5,
	})
	f := paper.MarketBasket(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.EvalNaive(db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DirectOnNaiveData(b *testing.B) {
	db := workload.Baskets(workload.BasketConfig{
		Baskets: 60, Items: 12, MeanSize: 3, Skew: 0.8, Seed: 5,
	})
	f := paper.MarketBasket(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Eval(db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// relationBytesRows is E2's basket relation: 20,000 baskets over 8,000
// items, 148,773 rows.
var relationBytesRows = workload.BasketConfig{Baskets: 20_000, Items: 8_000, MeanSize: 8, Skew: 1.0, Seed: 1998}

// relationBuilds builds the basket relation of src three ways, each into
// a database holding the dictionary it indexes.
var relationBuilds = []struct {
	name  string
	build func(src *storage.Database, dir string) (*storage.Database, error)
}{
	{"insert", func(src *storage.Database, _ string) (*storage.Database, error) {
		dict, err := src.Dict()
		if err != nil {
			return nil, err
		}
		from := src.MustRelation("baskets")
		rel := storage.NewRelationIn(dict, "baskets", from.Columns()...)
		for _, t := range from.Tuples() {
			rel.Insert(t)
		}
		db := storage.NewDatabase()
		db.Add(rel)
		return db, nil
	}},
	{"loaddir", func(_ *storage.Database, dir string) (*storage.Database, error) {
		return storage.LoadDir(filepath.Join(dir, "csv"))
	}},
	{"opendir-memory", func(_ *storage.Database, dir string) (*storage.Database, error) {
		db, _, err := storage.OpenDir(filepath.Join(dir, "seg"), storage.EngineMemory)
		return db, err
	}},
}

// relationBytesInputs generates the basket database and writes it as a
// CSV directory and as a data directory under dir.
func relationBytesInputs(dir string) (*storage.Database, error) {
	src := workload.Baskets(relationBytesRows)
	if err := os.MkdirAll(filepath.Join(dir, "csv"), 0o755); err != nil {
		return nil, err
	}
	if err := storage.WriteCSVFile(src.MustRelation("baskets"), filepath.Join(dir, "csv", "baskets.csv")); err != nil {
		return nil, err
	}
	return src, storage.CreateDir(filepath.Join(dir, "seg"), src)
}

// heapAfterGC is the live heap after a full collection.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// relationBytesPerRow is the heap the database's basket relation holds per
// row: its columns and its dedup table. The dictionary stays reachable
// (through db) when the relation is dropped, so it is not counted, and a
// fresh relation has built no ID index.
func relationBytesPerRow(db *storage.Database) float64 {
	n := db.MustSource("baskets").Len()
	with := heapAfterGC()
	db.Remove("baskets")
	without := heapAfterGC()
	runtime.KeepAlive(db)
	return float64(int64(with)-int64(without)) / float64(n)
}

// BenchmarkRelationBytes reports the resident bytes per row of E2's
// basket relation built by Insert, by LoadDir and by OpenDir with the
// memory engine.
func BenchmarkRelationBytes(b *testing.B) {
	dir := b.TempDir()
	src, err := relationBytesInputs(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, rb := range relationBuilds {
		b.Run(rb.name, func(b *testing.B) {
			var perRow float64
			for i := 0; i < b.N; i++ {
				db, err := rb.build(src, dir)
				if err != nil {
					b.Fatal(err)
				}
				perRow = relationBytesPerRow(db)
			}
			b.ReportMetric(perRow, "B/row")
		})
	}
	runtime.KeepAlive(src)
}

// TestRelationBytes holds each build of BenchmarkRelationBytes to at most
// 40 bytes per stored row.
func TestRelationBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 148,773-row relation three ways")
	}
	dir := t.TempDir()
	src, err := relationBytesInputs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range relationBuilds {
		db, err := rb.build(src, dir)
		if err != nil {
			t.Fatal(err)
		}
		perRow := relationBytesPerRow(db)
		t.Logf("%s: %.1f B/row", rb.name, perRow)
		if perRow > 40 {
			t.Errorf("%s: %.1f B/row, want at most 40", rb.name, perRow)
		}
	}
	runtime.KeepAlive(src)
}
