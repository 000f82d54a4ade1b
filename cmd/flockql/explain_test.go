package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs f with os.Stdout redirected to a pipe and returns what
// it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("run: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// writeExplainFlock writes the Fig. 2 flock with the given source prefix.
func writeExplainFlock(t *testing.T, prefix string) string {
	t.Helper()
	f := filepath.Join(t.TempDir(), "e.flock")
	src := prefix + `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 5`
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestExplainDoesNotExecute(t *testing.T) {
	dataDir, _ := setupData(t)
	flockFile := writeExplainFlock(t, "EXPLAIN")
	for _, strategy := range []string{"static", "direct"} {
		out := captureStdout(t, func() error {
			return run([]string{"-data", dataDir, "-strategy", strategy, flockFile})
		})
		for _, want := range []string{"safe subqueries", "join order (greedy", "baskets(B,$1)"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: EXPLAIN output missing %q:\n%s", strategy, want, out)
			}
		}
		if strings.Contains(out, "answers in") {
			t.Errorf("%s: EXPLAIN must not execute:\n%s", strategy, out)
		}
	}
	// Plan-producing strategy prints the chosen plan; run-time strategies say so.
	out := captureStdout(t, func() error {
		return run([]string{"-data", dataDir, "-strategy", "static", flockFile})
	})
	if !strings.Contains(out, "chosen static plan:") {
		t.Errorf("EXPLAIN static missing plan:\n%s", out)
	}
	if !strings.Contains(out, "physical plans per FILTER step") {
		t.Errorf("EXPLAIN static missing physical step plans:\n%s", out)
	}
	out = captureStdout(t, func() error {
		return run([]string{"-data", dataDir, "-strategy", "dynamic", flockFile})
	})
	if !strings.Contains(out, "materialize barrier decides at run time") {
		t.Errorf("EXPLAIN dynamic should render the barrier plan:\n%s", out)
	}
	if !strings.Contains(out, "materialize#") {
		t.Errorf("EXPLAIN dynamic missing materialize barrier nodes:\n%s", out)
	}
	out = captureStdout(t, func() error {
		return run([]string{"-data", dataDir, "-strategy", "direct", flockFile})
	})
	for _, want := range []string{"physical plan (direct):", "group#", "scan#"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN direct missing %q:\n%s", want, out)
		}
	}
}

func TestExplainAnalyzeRendersTree(t *testing.T) {
	dataDir, _ := setupData(t)
	flockFile := writeExplainFlock(t, "EXPLAIN ANALYZE")
	for _, strategy := range []string{"direct", "static", "dynamic"} {
		out := captureStdout(t, func() error {
			return run([]string{"-data", dataDir, "-strategy", strategy, flockFile})
		})
		if !strings.Contains(out, strategy+": ") || !strings.Contains(out, "answers") {
			t.Errorf("%s: EXPLAIN ANALYZE missing headline:\n%s", strategy, out)
		}
		if !strings.Contains(out, "rows") {
			t.Errorf("%s: EXPLAIN ANALYZE missing cardinalities:\n%s", strategy, out)
		}
	}
	// Dynamic must surface its filter decisions as typed events.
	out := captureStdout(t, func() error {
		return run([]string{"-data", dataDir, "-strategy", "dynamic", flockFile})
	})
	if !strings.Contains(out, "decide") {
		t.Errorf("dynamic EXPLAIN ANALYZE missing decisions:\n%s", out)
	}
}

func TestMetricsJSON(t *testing.T) {
	dataDir, flockFile := setupData(t)
	out := captureStdout(t, func() error {
		return run([]string{"-data", dataDir, "-strategy", "direct", "-quiet", "-metrics", "json", flockFile})
	})
	var report struct {
		Strategy   string `json:"strategy"`
		AnswerRows int    `json:"answer_rows"`
		WallNs     int64  `json:"wall_ns"`
		Steps      []struct {
			Op      string `json:"op"`
			RowsOut int    `json:"rows_out"`
		} `json:"steps"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("invalid metrics JSON: %v\n%s", err, out)
	}
	if report.Strategy != "direct" || report.WallNs <= 0 || len(report.Steps) == 0 {
		t.Errorf("incomplete report: %+v", report)
	}
	ops := map[string]bool{}
	for _, s := range report.Steps {
		ops[s.Op] = true
	}
	for _, want := range []string{"join", "group"} {
		if !ops[want] {
			t.Errorf("metrics JSON missing %q events: %v", want, ops)
		}
	}
	// Unknown format rejected.
	if err := run([]string{"-data", dataDir, "-metrics", "xml", flockFile}); err == nil {
		t.Error("-metrics xml should error")
	}
}
