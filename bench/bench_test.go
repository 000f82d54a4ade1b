package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The smoke test spawns this test binary as the bench's children; with
// BENCH_AS_MAIN set it behaves as the bench itself.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Fatalf("p95 of 199 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 200)
	got, err := percentile(xs, 95)
	if err != nil || got != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190 with 10 samples beyond", got, err)
	}
	if n := minSamplesFor(95); n != 200 {
		t.Fatalf("minSamplesFor(95) = %d, want 200", n)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatalf("p99 of 200 samples has 2 beyond it and must be refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Layer: "bench.op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: 1, Layer: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Op: 1, Layer: "b", StartNs: 30, EndNs: 60},  // overlaps a: 30..40 counted once
		{ID: 4, Parent: 1, Op: 1, Layer: "b", StartNs: 90, EndNs: 120}, // sticks out of the parent
		{ID: 5, Parent: 2, Op: 1, Layer: "c", StartNs: 15, EndNs: 25},  // grandchild: a's business, not the root's
		{ID: 6, Parent: 0, Op: 2, Layer: "bench.op", StartNs: 200, EndNs: 250},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 30, 5: 10, 6: 50}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	byOp := layerSelf(spans)
	if got := byOp[1]["b"]; got != 60 {
		t.Fatalf("layer b of op 1 = %d, want 60", got)
	}
}

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	corpus := []flockFile{
		{Name: fig10, Source: "QUERY:\nanswer(B,W) :- baskets(B,$1) AND importance(B,W)\nFILTER:\nSUM(answer.W) >= 110\n"},
		{Name: fig2, Source: "# pairs\nQUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\nFILTER:\nCOUNT(answer.B) >= 20\n"},
		{Name: fig3, Source: "QUERY:\nanswer(P) :- exhibits(P,$s)\nFILTER:\nCOUNT(answer.P) >= 20\n"},
		{Name: multidis, Source: "QUERY:\nanswer(P) :- exhibits(P,$s)\nFILTER:\nCOUNT(answer.P) >= 20\n"},
	}
	for _, wl := range workloads {
		differs := false
		for cycle := 0; cycle < 4; cycle++ {
			a, err := cycleRequests(wl.Name, corpus, 1998, 1, cycle)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := cycleRequests(wl.Name, corpus, 1998, 1, cycle)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: cycle %d differs between two calls with the same seed", wl.Name, cycle)
			}
			c, _ := cycleRequests(wl.Name, corpus, 7, 1, cycle)
			differs = differs || !reflect.DeepEqual(a, c)
		}
		// Only the workloads that draw from the generator depend on the seed.
		if drawn := wl.Name == "serve.session-warm" || wl.Name == "serve.mutate-mix"; differs != drawn {
			t.Errorf("%s: schedule depends on seed = %v, want %v", wl.Name, differs, drawn)
		}
	}
	renamed := alphaRename(corpus[1].Source, 42)
	want := "# pairs\nQUERY:\nanswer(B42) :- baskets(B42,$1) AND baskets(B42,$2) AND $1 < $2\nFILTER:\nCOUNT(answer.B42) >= 20\n"
	if renamed != want {
		t.Fatalf("alphaRename = %q, want %q", renamed, want)
	}
}

func TestVerify(t *testing.T) {
	a, b := hashRows([][]string{{"1", "2"}}), hashRows([][]string{{"1", "3"}})
	refs := map[string]answer{"k": a}
	results := []opResult{
		{req: request{OpType: "q", Expect: "k"}, got: a},
		{req: request{OpType: "q", Expect: "k"}, got: b}, // wrong rows
		{req: request{OpType: "r"}, got: a},
		{req: request{OpType: "r"}, got: b}, // disagrees at the same data version
		{req: request{OpType: "w", Write: true}},
		{req: request{OpType: "r"}, got: b}, // a new version may differ
		{req: request{OpType: "q", Expect: "missing"}, got: a},
	}
	failed, msgs := verify(results, refs)
	if failed != 3 {
		t.Fatalf("verify failed %d ops (%v), want 3", failed, msgs)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99}
	for _, tc := range []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 106, 104}, verdictOK},
		{lower, steady, []float64{115, 116, 114}, verdictRegressed},
		{lower, steady, []float64{50}, verdictOK},
		{higher, steady, []float64{85, 86, 84}, verdictRegressed},
		{higher, steady, []float64{130}, verdictOK},
		{lower, []float64{100, 140, 60}, []float64{100}, verdictUnresolved},
	} {
		if _, got := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestBenchmarkJSON holds the root BENCHMARK.json to the lists this
// program reports, so neither can drift from the other.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program's:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs every workload for a fraction of a second with every
// check on: inputs, reference answers, flockd start and stop, the traced
// run, the durability check, and the document.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs flockd")
	}
	t.Setenv("BENCH_AS_MAIN", "1")
	out := filepath.Join(t.TempDir(), "smoke.json")
	if code := run([]string{"-smoke", "-out", out}, os.Stderr, os.Stderr); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		wd := doc.Workloads[wl.Name]
		if wd == nil || wd.Attempted == 0 || wd.Failed != 0 {
			t.Fatalf("%s: %+v", wl.Name, wd)
		}
		if v := wd.EndToEnd["throughput_ops_s"]; v == nil || !(v.Values[0] > 0) {
			t.Errorf("%s: no throughput", wl.Name)
		}
		if share := wd.PerLayer["trace.attributed_share"].Value; math.Abs(share-1) > 0.05 {
			t.Errorf("%s: layers account for %.3f of op wall time, want within 5%% of all", wl.Name, share)
		}
	}
	if lost := doc.Workloads["serve.mutate-mix"].PerLayer["acked_writes_lost"].Value; lost != 0 {
		t.Errorf("acked_writes_lost = %v", lost)
	}
	if n := doc.Workloads["serve.sharded-2"].ByOpType[fig2+"/direct"].Counters["cluster.scattered_per_op"]; n <= 0 {
		t.Errorf("fig2/direct did not scatter on serve.sharded-2")
	}
}
