package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"queryflocks/internal/experiments"
)

func TestRunSingleExperimentTinyScale(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "E8", "-scale", "0.05"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"reproduction suite", "E8", "paper says 1, 5, 8"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "E99"}, &out); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bad flag should error")
	}
}

func TestRunJSON(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "E8", "-scale", "0.05", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var tables []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &tables); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(tables) != 1 || tables[0]["id"] != "E8" {
		t.Errorf("JSON tables = %v", tables)
	}
}

// TestRunJSONOperatorMetrics validates the op_reports schema on an
// instrumented experiment: -json must attach one report per strategy run,
// each with the aggregate fields and a non-empty typed step list whose
// events carry operator kinds and cardinalities.
func TestRunJSONOperatorMetrics(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "E3", "-scale", "0.05", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID        string `json:"id"`
		OpReports []struct {
			Strategy   string `json:"strategy"`
			AnswerRows int    `json:"answer_rows"`
			WallNs     int64  `json:"wall_ns"`
			MaxRows    int    `json:"max_rows"`
			TotalRows  int    `json:"total_rows"`
			Steps      []struct {
				Op      string `json:"op"`
				Desc    string `json:"desc"`
				RowsOut int    `json:"rows_out"`
			} `json:"steps"`
		} `json:"op_reports"`
	}
	if err := json.Unmarshal([]byte(out.String()), &tables); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(tables) != 1 || tables[0].ID != "E3" {
		t.Fatalf("expected one E3 table, got %+v", tables)
	}
	reports := tables[0].OpReports
	if len(reports) != 6 {
		t.Fatalf("E3 runs 6 plan variants, got %d op_reports", len(reports))
	}
	ops := map[string]bool{}
	for _, r := range reports {
		if r.Strategy == "" || r.WallNs <= 0 {
			t.Errorf("report missing strategy/wall time: %+v", r)
		}
		if len(r.Steps) == 0 {
			t.Errorf("report %q has no steps", r.Strategy)
		}
		if r.MaxRows > r.TotalRows {
			t.Errorf("report %q: max_rows %d > total_rows %d", r.Strategy, r.MaxRows, r.TotalRows)
		}
		for _, s := range r.Steps {
			if s.Op == "" || s.Desc == "" {
				t.Errorf("report %q: step missing op/desc: %+v", r.Strategy, s)
			}
			ops[s.Op] = true
		}
	}
	for _, want := range []string{"join", "group", "step"} {
		if !ops[want] {
			t.Errorf("no %q events recorded across E3 plans", want)
		}
	}
}

// TestRunE1TinyScaleClampsSupports is the regression for the tiny-scale
// crash: -scale 0.0001 used to drive E1's derived support floors
// (docs/100, docs/20) to zero, making the filter accept empty results and
// failing the whole suite. The derived supports now clamp to >= 1.
func TestRunE1TinyScaleClampsSupports(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "E1", "-scale", "0.0001"}, &out); err != nil {
		t.Fatalf("E1 at scale 0.0001: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "E1") {
		t.Errorf("output missing E1 table:\n%s", out.String())
	}
}

// TestRunPipelineOut checks -pipeline-out writes the BENCH_pipeline.json
// schema with the streaming run's footprint and dictionary statistics.
func TestRunPipelineOut(t *testing.T) {
	path := t.TempDir() + "/pipeline.json"
	var out strings.Builder
	if err := run([]string{"-exp", "E1", "-scale", "0.05", "-pipeline-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pf struct {
		Generator   string  `json:"generator"`
		Scale       float64 `json:"scale"`
		Seed        int64   `json:"seed"`
		Experiments []struct {
			ID       string `json:"id"`
			Pipeline []struct {
				Name        string `json:"name"`
				AllocStream int64  `json:"alloc_stream_bytes"`
				DictSize    int    `json:"dict_size"`
			} `json:"pipeline"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &pf); err != nil {
		t.Fatalf("invalid pipeline JSON: %v\n%s", err, raw)
	}
	if pf.Scale != 0.05 || pf.Seed != 1998 || !strings.Contains(pf.Generator, "-exp E1") {
		t.Errorf("header = %+v", pf)
	}
	if len(pf.Experiments) != 1 || pf.Experiments[0].ID != "E1" || len(pf.Experiments[0].Pipeline) == 0 {
		t.Fatalf("experiments = %+v", pf.Experiments)
	}
	p := pf.Experiments[0].Pipeline[0]
	if p.Name == "" || p.AllocStream <= 0 || p.DictSize < 1 {
		t.Errorf("pipeline metric = %+v", p)
	}
	// An experiment with no pipeline metrics must refuse to write an
	// empty comparison.
	if err := run([]string{"-exp", "E8", "-scale", "0.05", "-pipeline-out", t.TempDir() + "/x.json"}, &out); err == nil {
		t.Error("E8 records no pipeline metrics; -pipeline-out should error")
	}
}

// TestWritePipelineGeneratorRegenerates checks the recorded generator
// names every knob the numbers depend on and the output path, so running
// it rewrites the file: the seed always, and the scale also when no -exp
// subset is given.
func TestWritePipelineGeneratorRegenerates(t *testing.T) {
	tables := []*experiments.Table{{ID: "E1", Pipeline: []experiments.PipelineMetric{{Name: "w"}}}}
	for _, exp := range []string{"", "E1"} {
		path := t.TempDir() + "/pipeline.json"
		if err := writePipeline(path, experiments.Config{Scale: 0.05, Seed: 7}, exp, tables); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var pf struct {
			Generator string `json:"generator"`
		}
		if err := json.Unmarshal(raw, &pf); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"-scale 0.05", "-seed 7", "-pipeline-out " + path} {
			if !strings.Contains(pf.Generator, want) {
				t.Errorf("-exp %q: generator %q lacks %q", exp, pf.Generator, want)
			}
		}
	}
}

func TestRunRejectsBadScaleAndTimeout(t *testing.T) {
	var out strings.Builder
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-timeout", "-5s"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should error", args)
		}
	}
}
