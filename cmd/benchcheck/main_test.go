package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"queryflocks/internal/obs"
)

// goodInput builds a minimal flockbench -json document with one valid
// instrumented report.
func goodInput(t *testing.T) string {
	t.Helper()
	c := obs.NewCollector()
	c.Record(obs.Event{Op: obs.OpJoin, Desc: "r(A,B)", RowsIn: 10, RowsOut: 20})
	c.Record(obs.Event{Op: obs.OpGroup, Desc: "answer [COUNT >= 2]", RowsIn: 20, RowsOut: 5, Groups: 5})
	r := c.Report("direct", 1, 5)
	doc := []map[string]any{{"id": "E3", "title": "t", "op_reports": []*obs.RunReport{r}}}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestBenchcheckAccepts(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-require-ops", "join,group", "-min-reports", "1"},
		strings.NewReader(goodInput(t)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 op_report(s)") {
		t.Errorf("summary: %s", out.String())
	}
}

// TestBenchcheckAcceptsPhysicalOps feeds a report whose steps use every
// physical operator kind (with plan-node ids) and checks the closed-set
// validation admits them all.
func TestBenchcheckAcceptsPhysicalOps(t *testing.T) {
	c := obs.NewCollector()
	kinds := []obs.Op{
		obs.OpScan, obs.OpBuild, obs.OpJoin, obs.OpAntiJoin, obs.OpSelect,
		obs.OpProject, obs.OpUnion, obs.OpGroup, obs.OpMaterialize,
		obs.OpSymJoin, obs.OpStep, obs.OpDecision, obs.OpView, obs.OpNote,
	}
	for i, op := range kinds {
		c.Record(obs.Event{Op: op, ID: i + 1, Desc: "d", RowsIn: 1, RowsOut: 1})
	}
	r := c.Report("direct", 1, 1)
	doc := []map[string]any{{"id": "E1", "title": "t", "op_reports": []*obs.RunReport{r}}}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-require-ops", "scan,build,join,symjoin,project,union,materialize"},
		strings.NewReader(string(b)), &out); err != nil {
		t.Fatal(err)
	}
}

// TestBenchcheckDecisionAttribution drives the dynamic-run invariants: a
// timed decision must sit inside its barrier's materialize event, and the
// operator walls must cover the run.
func TestBenchcheckDecisionAttribution(t *testing.T) {
	report := func(decision, barrier, scan time.Duration) *obs.RunReport {
		r := &obs.RunReport{Strategy: "dynamic", WallNs: int64(10 * time.Millisecond), AnswerRows: 1, Steps: []obs.Event{
			{Op: obs.OpDecision, ID: 4, Desc: "after r(A,B) on [$1]", RowsIn: 9, RowsOut: 3, Wall: decision},
			{Op: obs.OpScan, ID: 5, Desc: "r(A,B)", RowsOut: 9, Wall: scan},
			{Op: obs.OpMaterialize, ID: 4, Desc: "bind1", RowsIn: 9, RowsOut: 3, Wall: barrier},
		}}
		for _, e := range r.Steps {
			r.TotalRows += e.RowsOut
			r.MaxRows = max(r.MaxRows, e.RowsOut)
		}
		return r
	}
	ms := time.Millisecond
	for _, c := range []struct {
		name    string
		r       *obs.RunReport
		wantErr string
	}{
		{"attributed", report(2*ms, 6*ms, 3500*time.Microsecond), ""},
		{"untimed decisions are the materializing executor's", report(0, 0, ms), ""},
		{"decision outlasts its barrier", report(7*ms, 6*ms, 4*ms), "longer than its barrier"},
		{"time outside every operator", report(2*ms, 5*ms, 3*ms), "want at least 90%"},
	} {
		err := checkReport(c.r)
		if (err == nil) != (c.wantErr == "") || err != nil && !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.wantErr)
		}
	}
	orphan := report(2*ms, 6*ms, 4*ms)
	orphan.Steps[0].ID = 7
	if err := checkReport(orphan); err == nil || !strings.Contains(err.Error(), "no materialize event") {
		t.Errorf("decision naming a missing node: got %v", err)
	}
}

// TestBenchcheckMemoAttribution: a report that replayed a memoized
// extended answer (a cached scan) is held to the same rule — its operator
// walls must cover the run — while a survivor-plane hit, which runs no
// operator plan, is not.
func TestBenchcheckMemoAttribution(t *testing.T) {
	report := func(steps ...obs.Event) *obs.RunReport {
		r := &obs.RunReport{Strategy: "direct", WallNs: int64(10 * time.Millisecond), AnswerRows: 2, Steps: steps}
		for _, e := range steps {
			r.TotalRows += e.RowsOut
			r.MaxRows = max(r.MaxRows, e.RowsOut)
		}
		return r
	}
	ms := time.Millisecond
	replay := func(group time.Duration) *obs.RunReport {
		return report(
			obs.Event{Op: obs.OpScan, ID: 3, Desc: "memo", RowsIn: 50, RowsOut: 50, Wall: ms / 10, Cached: true},
			obs.Event{Op: obs.OpGroup, ID: 2, Desc: "flock [COUNT(answer.B) >= 3]", RowsIn: 50, RowsOut: 2, Groups: 9, Wall: group},
			obs.Event{Op: obs.OpMaterialize, ID: 1, Desc: "flock", RowsIn: 2, RowsOut: 2, Wall: ms / 10},
		)
	}
	if err := checkReport(replay(9 * ms)); err != nil {
		t.Errorf("attributed replay: %v", err)
	}
	if err := checkReport(replay(5 * ms)); err == nil || !strings.Contains(err.Error(), "want at least 90%") {
		t.Errorf("replay with time outside every operator: got %v", err)
	}
	survivors := report(obs.Event{Op: obs.OpGroup, Desc: "flock [COUNT(answer.B) >= 3]", RowsOut: 2, Wall: ms / 100, Cached: true})
	if err := checkReport(survivors); err != nil {
		t.Errorf("survivor-plane hit: %v", err)
	}
}

// pipelineInput builds a flockbench -json document carrying one valid
// pipeline metric alongside a valid op_report.
func pipelineInput(t *testing.T, alloc int64) string {
	t.Helper()
	p := pipelineMetric{
		Name: "direct support=20", PeakStream: 100, AllocStream: alloc,
		DictSize: 7, InternHits: 5, InternMisses: 1,
	}
	var doc []map[string]any
	if err := json.Unmarshal([]byte(goodInput(t)), &doc); err != nil {
		t.Fatal(err)
	}
	doc[0]["pipeline"] = []pipelineMetric{p}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func writeBaseline(t *testing.T, alloc int64) string {
	t.Helper()
	path := t.TempDir() + "/baseline.json"
	base := map[string]any{"experiments": []map[string]any{{
		"id": "E3",
		"pipeline": []map[string]any{{
			"name": "direct support=20", "alloc_stream_bytes": alloc,
		}},
	}}}
	b, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchcheckPipeline(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(pipelineInput(t, 1000)), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 pipeline metric(s)") {
		t.Errorf("summary: %s", out.String())
	}

	// Invalid metrics must be rejected.
	for name, mutate := range map[string]string{
		"empty name":     `"name":"direct support=20"`,
		"zero dict":      `"dict_size":7`,
		"negative alloc": `"alloc_stream_bytes":1000`,
	} {
		bad := pipelineInput(t, 1000)
		switch name {
		case "empty name":
			bad = strings.Replace(bad, mutate, `"name":""`, 1)
		case "zero dict":
			bad = strings.Replace(bad, mutate, `"dict_size":0`, 1)
		case "negative alloc":
			bad = strings.Replace(bad, mutate, `"alloc_stream_bytes":-5`, 1)
		}
		if err := run(nil, strings.NewReader(bad), &strings.Builder{}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestBenchcheckPipelineBaseline(t *testing.T) {
	// Within 10% of the baseline: passes.
	ok := writeBaseline(t, 950)
	if err := run([]string{"-pipeline-baseline", ok},
		strings.NewReader(pipelineInput(t, 1000)), &strings.Builder{}); err != nil {
		t.Fatalf("within-tolerance run failed: %v", err)
	}
	// More than 1.1x the baseline: the regression gate trips.
	low := writeBaseline(t, 500)
	err := run([]string{"-pipeline-baseline", low},
		strings.NewReader(pipelineInput(t, 1000)), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "exceeds 1.1x baseline") {
		t.Fatalf("regression should trip the gate, got %v", err)
	}
	// A baseline that matches nothing is a configuration error.
	drift := t.TempDir() + "/drift.json"
	if err := os.WriteFile(drift, []byte(`{"experiments":[{"id":"E9","pipeline":[{"name":"x","alloc_stream_bytes":1}]}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-pipeline-baseline", drift},
		strings.NewReader(pipelineInput(t, 1000)), &strings.Builder{}); err == nil {
		t.Error("unmatched baseline should fail")
	}
}

func TestBenchcheckRejects(t *testing.T) {
	good := goodInput(t)
	cases := []struct {
		name  string
		args  []string
		input string
	}{
		{"bad json", nil, "{not json"},
		{"empty array", nil, "[]"},
		{"missing op", []string{"-require-ops", "antijoin"}, good},
		{"too few reports", []string{"-min-reports", "2"}, good},
		{"no reports at all", nil, `[{"id":"E1","title":"t"}]`},
		{"empty id", nil, strings.Replace(good, `"id":"E3"`, `"id":""`, 1)},
		{"empty steps", nil, `[{"id":"E3","op_reports":[{"strategy":"s","wall_ns":5,"answer_rows":1,"max_rows":0,"total_rows":0,"steps":[]}]}]`},
		{"no wall time", nil, `[{"id":"E3","op_reports":[{"strategy":"s","answer_rows":1,"max_rows":1,"total_rows":1,"steps":[{"op":"join","rows_out":1}]}]}]`},
		{"aggregate mismatch", nil, `[{"id":"E3","op_reports":[{"strategy":"s","wall_ns":5,"answer_rows":1,"max_rows":9,"total_rows":9,"steps":[{"op":"join","rows_out":1}]}]}]`},
		{"unknown op kind", nil, `[{"id":"E3","op_reports":[{"strategy":"s","wall_ns":5,"answer_rows":1,"max_rows":1,"total_rows":1,"steps":[{"op":"mystery","rows_out":1}]}]}]`},
		{"negative node id", nil, `[{"id":"E3","op_reports":[{"strategy":"s","wall_ns":5,"answer_rows":1,"max_rows":1,"total_rows":1,"steps":[{"op":"join","id":-2,"rows_out":1}]}]}]`},
		{"negative peak", nil, `[{"id":"E3","op_reports":[{"strategy":"s","wall_ns":5,"answer_rows":1,"max_rows":1,"total_rows":1,"peak_tuples":-1,"steps":[{"op":"join","rows_out":1}]}]}]`},
		{"bad flag", []string{"-bogus"}, good},
	}
	for _, c := range cases {
		var out strings.Builder
		if err := run(c.args, strings.NewReader(c.input), &out); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestBenchcheckRequireStorage covers -require-storage: a report with
// storage I/O must be present, and none of them may carry boxed batches
// (every engine runs the ID-column executor).
func TestBenchcheckRequireStorage(t *testing.T) {
	report := func(step string) string {
		return `[{"id":"E12","op_reports":[{"strategy":"direct","wall_ns":5,"answer_rows":1,"max_rows":1,"total_rows":1,` +
			`"segments_opened":2,"storage_bytes_read":640,"steps":[` + step + `]}]}]`
	}
	args := []string{"-require-storage"}
	if err := run(args, strings.NewReader(report(`{"op":"join","rows_out":1,"id_batches":3}`)), &strings.Builder{}); err != nil {
		t.Fatalf("columnar disk report rejected: %v", err)
	}
	err := run(args, strings.NewReader(report(`{"op":"join","rows_out":1,"boxed_batches":3}`)), &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "boxed_batches") {
		t.Fatalf("boxed batches over a data directory should fail, got %v", err)
	}
	if err := run(args, strings.NewReader(goodInput(t)), &strings.Builder{}); err == nil {
		t.Fatal("a run without storage I/O should fail -require-storage")
	}
}

// TestBenchcheckCaches validates the serving-layer cache block flockd
// attaches to its reports: bounded gauges and hit/occupancy consistency.
func TestBenchcheckCaches(t *testing.T) {
	report := func(caches string) string {
		return `[{"id":"E3","op_reports":[{"strategy":"direct","wall_ns":5,"answer_rows":1,"max_rows":1,"total_rows":1,` +
			`"caches":` + caches + `,"steps":[{"op":"join","rows_out":1}]}]}]`
	}
	var out strings.Builder
	ok := report(`{"plan_entries":2,"plan_capacity":8,"plan_hits":3,"plan_misses":2,"memo_entries":4,"memo_bytes":100,"memo_max_bytes":1000,"memo_surv_hits":1,"db_version":2}`)
	if err := run(nil, strings.NewReader(ok), &out); err != nil {
		t.Fatalf("valid cache block rejected: %v", err)
	}
	bad := []struct{ name, caches string }{
		{"entries over capacity", `{"plan_entries":9,"plan_capacity":8}`},
		{"bytes over bound", `{"memo_entries":1,"memo_bytes":2000,"memo_max_bytes":1000}`},
		{"plan hits from nowhere", `{"plan_hits":3}`},
		{"memo hits from nowhere", `{"memo_ext_hits":2}`},
		{"negative bytes", `{"memo_bytes":-1}`},
	}
	for _, c := range bad {
		if err := run(nil, strings.NewReader(report(c.caches)), &out); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// clusterInput attaches a cluster block to an otherwise valid report.
func clusterInput(t *testing.T, c *obs.ClusterStats) string {
	t.Helper()
	col := obs.NewCollector()
	col.Record(obs.Event{Op: obs.OpShard, Desc: "127.0.0.1:9001", RowsOut: 4})
	col.Record(obs.Event{Op: obs.OpGroup, Desc: "answer [COUNT >= 2] (merged 2 shards)", RowsIn: 8, RowsOut: 3, Groups: 8})
	r := col.Report("direct", 1, 3)
	r.Cluster = c
	doc := []map[string]any{{"id": "E13", "title": "t", "op_reports": []*obs.RunReport{r}}}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestBenchcheckCluster(t *testing.T) {
	good := &obs.ClusterStats{Shards: 2, ShardRel: "baskets", Scattered: 1, MergedGroups: 8, PartialBytes: 96}
	var out strings.Builder
	if err := run(nil, strings.NewReader(clusterInput(t, good)), &out); err != nil {
		t.Fatalf("valid cluster block rejected: %v", err)
	}
	for name, bad := range map[string]*obs.ClusterStats{
		"no shards":          {Shards: 0, ShardRel: "baskets"},
		"missing rel":        {Shards: 2, Scattered: 1},
		"merged w/o scatter": {Shards: 2, ShardRel: "baskets", MergedGroups: 3},
		"partial mismatch":   {Shards: 2, ShardRel: "baskets", Scattered: 1, PartialBytes: 96, Partial: true},
		"all shards dead":    {Shards: 2, ShardRel: "baskets", Scattered: 1, PartialBytes: 96, Partial: true, Failed: []string{"a", "b"}},
		"scatter w/o bytes":  {Shards: 2, ShardRel: "baskets", Scattered: 1, MergedGroups: 8},
		"bytes w/o scatter":  {Shards: 2, ShardRel: "baskets", Fallbacks: 1, PartialBytes: 96},
	} {
		if err := run(nil, strings.NewReader(clusterInput(t, bad)), &strings.Builder{}); err == nil {
			t.Errorf("%s: invalid cluster block accepted", name)
		}
	}
}
