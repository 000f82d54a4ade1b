package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"queryflocks/internal/serve"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

func replDB(t *testing.T) *storage.Database {
	t.Helper()
	return workload.Baskets(workload.BasketConfig{
		Baskets: 200, Items: 20, MeanSize: 4, Skew: 0.8, Seed: 4,
	})
}

func runREPL(t *testing.T, db *storage.Database, script string) string {
	t.Helper()
	return runSession(t, &session{pipe: serve.New(db, serve.Config{}), req: serve.Request{Strategy: "direct"}}, script)
}

// runSession drives the REPL over a session set up the way run's flags
// would set it up.
func runSession(t *testing.T, s *session, script string) string {
	t.Helper()
	var out strings.Builder
	if err := s.repl(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

const pairScript = `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 5

\quit
`

// TestREPLStartsFromFlags is the regression for -i silently ignoring
// -strategy, -workers, -timeout and -explain: each flag must reach the
// session's evaluations.
func TestREPLStartsFromFlags(t *testing.T) {
	db := replDB(t)
	base := runREPL(t, db, pairScript)

	// -strategy (with -depth: cascade is flag-only, \strategy cannot pick it)
	got := runSession(t, &session{
		pipe: serve.New(db, serve.Config{}),
		req:  serve.Request{Strategy: "cascade", Side: serve.Side{Depth: 2}},
	}, pairScript)
	if !strings.Contains(got, "(cascade strategy)") {
		t.Errorf("-strategy cascade did not reach the session:\n%s", got)
	}
	// -explain
	got = runSession(t, &session{
		pipe: serve.New(db, serve.Config{}), req: serve.Request{Strategy: "dynamic"}, explain: true,
	}, pairScript)
	if !strings.Contains(got, "decision:") {
		t.Errorf("-explain did not reach the session:\n%s", got)
	}
	// -timeout
	got = runSession(t, &session{
		pipe: serve.New(db, serve.Config{Timeout: time.Nanosecond}), req: serve.Request{Strategy: "direct"},
	}, pairScript)
	if !strings.Contains(got, "evaluation canceled") || strings.Contains(got, "answers in") {
		t.Errorf("-timeout 1ns should abort the evaluation:\n%s", got)
	}
	// -workers: the observed operator tree reports the configured count,
	// and the answer rows do not depend on it.
	analyze := strings.Replace(pairScript, "\nQUERY:", "EXPLAIN ANALYZE\nQUERY:", 1)
	for workers, label := range map[int]string{0: "(workers=per-CPU)", 3: "(workers=3)"} {
		s := &session{pipe: serve.New(db, serve.Config{Workers: workers}), req: serve.Request{Strategy: "direct"}}
		if got := runSession(t, s, analyze); !strings.Contains(got, label) {
			t.Errorf("-workers %d did not reach the session:\n%s", workers, got)
		}
		if got := runSession(t, s, pairScript); rows(got) != rows(base) {
			t.Errorf("-workers %d changed the answer rows", workers)
		}
	}
}

// rows strips the timing line, leaving the REPL's answer listing.
func rows(replOutput string) string {
	var keep []string
	for _, line := range strings.Split(replOutput, "\n") {
		if !strings.Contains(line, "answers in") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestREPLFlagsThroughRun drives run -i end to end so the flag-to-session
// wiring itself is covered, not just the session.
func TestREPLFlagsThroughRun(t *testing.T) {
	dataDir, _ := setupData(t)
	stdin, err := os.CreateTemp(t.TempDir(), "script")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stdin.WriteString(pairScript); err != nil {
		t.Fatal(err)
	}
	if _, err := stdin.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = stdin
	defer func() { os.Stdin = old; stdin.Close() }()
	out := captureStdout(t, func() error {
		return run([]string{"-data", dataDir, "-i", "-strategy", "dynamic", "-explain", "-workers", "1", "-timeout", "1h"})
	})
	for _, want := range []string{"decision:", "(dynamic strategy)"} {
		if !strings.Contains(out, want) {
			t.Errorf("run -i output missing %q:\n%s", want, out)
		}
	}
}

// TestREPLLintStopsFlock: error-severity diagnostics stop a REPL flock the
// way they stop a file, and warnings print without stopping it.
func TestREPLLintStopsFlock(t *testing.T) {
	unsafe := `
QUERY:
answer(X) :- baskets(B,$1) AND X > 5
FILTER:
COUNT(answer.X) >= 2

\quit
`
	got := runREPL(t, replDB(t), unsafe)
	if !strings.Contains(got, "[QF002]") || !strings.Contains(got, "rejected by static analysis") {
		t.Errorf("unsafe flock should be stopped with its diagnostics:\n%s", got)
	}
	if strings.Contains(got, "answers in") {
		t.Errorf("a rejected flock must not evaluate:\n%s", got)
	}
	warn := `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,X)
FILTER:
COUNT(answer.B) >= 2

\quit
`
	got = runREPL(t, replDB(t), warn)
	if !strings.Contains(got, "[QF013]") || !strings.Contains(got, "answers in") {
		t.Errorf("warnings must print and not stop the flock:\n%s", got)
	}
}

func TestREPLEvaluatesFlock(t *testing.T) {
	script := `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 5

\quit
`
	got := runREPL(t, replDB(t), script)
	for _, want := range []string{"$1\t$2", "answers in", "bye"} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
}

func TestREPLCommands(t *testing.T) {
	script := `
\help
\rels
\strategy dynamic
\strategy bogus
\explain on
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 5

\sql
\plan
\nosuch
\quit
`
	got := runREPL(t, replDB(t), script)
	cases := []string{
		"commands:",
		"baskets(BID, Item)",
		"strategy: dynamic",
		"unknown strategy: bogus",
		"explain: true",
		"decision:",       // dynamic explanations
		"GROUP BY p1, p2", // \sql
		"FILTER",          // \plan rendering
		"unknown command: \\nosuch",
	}
	for _, want := range cases {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
}

func TestREPLSQLBeforeFlock(t *testing.T) {
	got := runREPL(t, replDB(t), "\\sql\n\\plan\n\\quit\n")
	if strings.Count(got, "no flock yet") != 2 {
		t.Errorf("expected two 'no flock yet':\n%s", got)
	}
}

func TestREPLParseError(t *testing.T) {
	script := `
QUERY:
answer(B) :- baskets(B,
FILTER:
COUNT(answer.B) >= 5

\quit
`
	got := runREPL(t, replDB(t), script)
	if !strings.Contains(got, "parse error:") {
		t.Errorf("expected parse error:\n%s", got)
	}
}

func TestREPLStrategies(t *testing.T) {
	for _, s := range []string{"direct", "static", "exhaustive", "levelwise", "dynamic", "naive"} {
		script := "\\strategy " + s + `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 5

\quit
`
		got := runREPL(t, replDB(t), script)
		if !strings.Contains(got, "answers in") {
			t.Errorf("%s: no answer line:\n%s", s, got)
		}
	}
}

func TestREPLExplainPrefix(t *testing.T) {
	script := `EXPLAIN
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 5

\quit
`
	got := runREPL(t, replDB(t), script)
	for _, want := range []string{"safe subqueries", "join order (greedy", "physical plan (direct):", "scan#"} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL EXPLAIN missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "answers in") {
		t.Errorf("REPL EXPLAIN must not execute:\n%s", got)
	}
}

func TestREPLExplainAnalyze(t *testing.T) {
	script := `\strategy dynamic
EXPLAIN ANALYZE
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 5

\quit
`
	got := runREPL(t, replDB(t), script)
	for _, want := range []string{"dynamic: ", "answers", "decide", "rows"} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL EXPLAIN ANALYZE missing %q:\n%s", want, got)
		}
	}
}

func TestREPLSurvivesEnginePanic(t *testing.T) {
	// SUM over a string column panics inside the engine
	// (storage.Value.AsFloat rejects strings); the session must print
	// the error and keep evaluating the next statement.
	db := replDB(t)
	tags := storage.NewRelation("tags", "BID", "Tag")
	tags.InsertValues(storage.Int(1), storage.Str("x"))
	tags.InsertValues(storage.Int(2), storage.Str("y"))
	db.Add(tags)
	script := `
QUERY:
answer(T) :- tags($1,T)
FILTER:
SUM(answer.T) >= 1

QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 5

\quit
`
	got := runREPL(t, db, script)
	if !strings.Contains(got, "internal panic:") {
		t.Errorf("expected recovered panic message:\n%s", got)
	}
	if !strings.Contains(got, "answers in") {
		t.Errorf("session did not survive to evaluate the next statement:\n%s", got)
	}
	if !strings.Contains(got, "bye") {
		t.Errorf("\\quit did not run after the panic:\n%s", got)
	}
}

func TestREPLLint(t *testing.T) {
	// \lint before any flock; then a flock whose relation is missing from
	// the loaded database (QF016 needs the DB) and whose X is a singleton
	// (QF013); \lint reports both even though evaluation failed.
	script := `\lint
QUERY:
answer(B) :- baskets(B,$1) AND nosuch(B,X)
FILTER:
COUNT(answer.B) >= 5

\lint
\quit
`
	got := runREPL(t, replDB(t), script)
	for _, want := range []string{"no flock yet", "[QF016]", "[QF013]"} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL \\lint output missing %q:\n%s", want, got)
		}
	}
}

func TestREPLEOFWithoutQuit(t *testing.T) {
	got := runREPL(t, replDB(t), "\\rels\n")
	if !strings.Contains(got, "baskets") {
		t.Errorf("output:\n%s", got)
	}
}
