package analysis

import (
	"encoding/json"
	"strings"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/storage"
)

// has reports whether a diagnostic with the code (and at least the given
// severity match) exists, returning the first one.
func find(ds []Diagnostic, code string) (Diagnostic, bool) {
	for _, d := range ds {
		if d.Code == code {
			return d, true
		}
	}
	return Diagnostic{}, false
}

func codes(ds []Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Code
	}
	return out
}

func TestSyntaxErrorQF001(t *testing.T) {
	ds := AnalyzeSource("QUERY:\nanswer(B :- baskets(B,$1)\nFILTER:\nCOUNT(answer.B) >= 2", Options{File: "t.flock"})
	d, ok := find(ds, "QF001")
	if !ok {
		t.Fatalf("want QF001, got %v", ds)
	}
	if d.Severity != SevError || d.Line != 2 {
		t.Errorf("QF001 = %+v, want error on line 2", d)
	}
	if d.File != "t.flock" || !strings.HasPrefix(d.String(), "t.flock:2:") {
		t.Errorf("rendering %q should carry file:line:col", d.String())
	}
}

func TestUnsafeRuleQF002(t *testing.T) {
	src := `
QUERY:
answer(X) :- baskets(B,$1) AND X > 5
FILTER:
COUNT(answer.X) >= 2`
	ds := AnalyzeSource(src, Options{})
	d, ok := find(ds, "QF002")
	if !ok {
		t.Fatalf("want QF002, got %v", ds)
	}
	if d.Severity != SevError {
		t.Errorf("QF002 severity = %v", d.Severity)
	}
	if d.Line != 3 {
		t.Errorf("QF002 line = %d, want 3: %+v", d.Line, d)
	}
	if !strings.Contains(d.Message, "unsafe") {
		t.Errorf("message %q should mention unsafety", d.Message)
	}
}

func TestParamInHeadQF003(t *testing.T) {
	src := `
QUERY:
answer($1) :- baskets(B,$1)
FILTER:
COUNT(answer(*)) >= 2`
	ds := AnalyzeSource(src, Options{})
	if d, ok := find(ds, "QF003"); !ok || d.Severity != SevError || d.Line != 3 {
		t.Fatalf("want QF003 error on line 3, got %v", ds)
	}
}

func TestUnboundParameterQF004(t *testing.T) {
	src := `
QUERY:
answer(B) :- baskets(B,$1)
answer(B) :- sales(B,B)
FILTER:
COUNT(answer.B) >= 2`
	ds := AnalyzeSource(src, Options{})
	d, ok := find(ds, "QF004")
	if !ok {
		t.Fatalf("want QF004, got %v", ds)
	}
	if d.Severity != SevError || d.Line != 4 {
		t.Errorf("QF004 = %+v, want error on line 4 (the rule leaving $1 unbound)", d)
	}
	if !strings.Contains(d.Message, "$1") {
		t.Errorf("message %q should name the parameter", d.Message)
	}
}

func TestNoParametersQF005(t *testing.T) {
	src := `
QUERY:
answer(B) :- baskets(B,X)
FILTER:
COUNT(answer.B) >= 2`
	ds := AnalyzeSource(src, Options{})
	if d, ok := find(ds, "QF005"); !ok || d.Severity != SevError {
		t.Fatalf("want QF005 error, got %v", ds)
	}
}

func TestBadFilterTargetQF006(t *testing.T) {
	src := `
QUERY:
answer(B) :- baskets(B,$1)
FILTER:
COUNT(answer.Z) >= 2`
	ds := AnalyzeSource(src, Options{})
	d, ok := find(ds, "QF006")
	if !ok {
		t.Fatalf("want QF006, got %v", ds)
	}
	if d.Severity != SevError || d.Line != 5 {
		t.Errorf("QF006 = %+v, want error at the filter on line 5", d)
	}
}

func TestFilterPassesEmptyQF007(t *testing.T) {
	src := `
QUERY:
answer(B) :- baskets(B,$1)
FILTER:
COUNT(answer.B) >= 0`
	ds := AnalyzeSource(src, Options{})
	d, ok := find(ds, "QF007")
	if !ok {
		t.Fatalf("want QF007, got %v", ds)
	}
	if d.Severity != SevError || !strings.Contains(d.Message, "infinite") {
		t.Errorf("QF007 = %+v, want error mentioning the infinite answer", d)
	}
}

func TestNonMonotoneFilterQF008(t *testing.T) {
	src := `
QUERY:
answer(B,W) :- baskets(B,$1) AND importance(B,W)
FILTER:
MIN(answer.W) >= 3`
	ds := AnalyzeSource(src, Options{})
	d, ok := find(ds, "QF008")
	if !ok {
		t.Fatalf("want QF008, got %v", ds)
	}
	if d.Severity != SevWarning || d.Line != 5 {
		t.Errorf("QF008 = %+v, want warning at the filter on line 5", d)
	}
	if HasErrors(ds) {
		t.Errorf("non-monotone filter should not be an error: %v", ds)
	}
}

func TestRedundantSubgoalQF009Containment(t *testing.T) {
	// Deleting baskets(B,X) leaves an equivalent query: the containment
	// mapping sends X to $1. The parameterized subgoal is NOT redundant —
	// deleting it would unbind $1 — and must not be flagged.
	src := `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,X)
FILTER:
COUNT(answer.B) >= 2`
	ds := AnalyzeSource(src, Options{})
	d, ok := find(ds, "QF009")
	if !ok {
		t.Fatalf("want QF009, got %v", ds)
	}
	if d.Severity != SevWarning || d.Line != 3 {
		t.Errorf("QF009 = %+v, want warning on line 3", d)
	}
	if !strings.Contains(d.Message, "baskets(B,X)") {
		t.Errorf("message %q should name the redundant subgoal, not the parameterized one", d.Message)
	}
	var count int
	for _, x := range ds {
		if x.Code == "QF009" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("want exactly one QF009 (the parameterized subgoal is live), got %v", ds)
	}
}

func TestRedundantSubgoalQF009Duplicate(t *testing.T) {
	// Extended CQ (comparison present): only literal duplicates flag.
	src := `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$1) AND $1 < 10
FILTER:
COUNT(answer.B) >= 2`
	ds := AnalyzeSource(src, Options{})
	if d, ok := find(ds, "QF009"); !ok || d.Severity != SevWarning {
		t.Fatalf("want duplicate-subgoal QF009, got %v", ds)
	}
}

func TestSubsumedUnionBranchQF010(t *testing.T) {
	src := `
QUERY:
answer(B) :- baskets(B,$1)
answer(B) :- baskets(B,$1) AND sales(B,B)
FILTER:
COUNT(answer.B) >= 2`
	ds := AnalyzeSource(src, Options{})
	d, ok := find(ds, "QF010")
	if !ok {
		t.Fatalf("want QF010, got %v", ds)
	}
	if d.Severity != SevWarning || d.Line != 4 {
		t.Errorf("QF010 = %+v, want warning on line 4 (the subsumed branch)", d)
	}
}

func TestComparisonQF011QF012(t *testing.T) {
	src := `
QUERY:
answer(B) :- baskets(B,$1) AND 3 > 5 AND $1 = $1
FILTER:
COUNT(answer.B) >= 2`
	ds := AnalyzeSource(src, Options{})
	if d, ok := find(ds, "QF011"); !ok || d.Severity != SevWarning || d.Line != 3 {
		t.Fatalf("want QF011 warning on line 3, got %v", ds)
	}
	if d, ok := find(ds, "QF012"); !ok || d.Severity != SevWarning {
		t.Fatalf("want QF012 warning, got %v", ds)
	} else if !strings.Contains(d.Message, "$1 = $1") {
		t.Errorf("QF012 message %q should show the tautology", d.Message)
	}
}

func TestSingletonVariableQF013(t *testing.T) {
	src := `
QUERY:
answer(B) :- baskets(B,$1) AND sales(B,X)
FILTER:
COUNT(answer.B) >= 2`
	ds := AnalyzeSource(src, Options{})
	d, ok := find(ds, "QF013")
	if !ok {
		t.Fatalf("want QF013, got %v", ds)
	}
	if d.Severity != SevWarning || !strings.Contains(d.Message, "X") {
		t.Errorf("QF013 = %+v, want warning naming X", d)
	}
	// A variable shared between head and one subgoal is not a singleton.
	for _, x := range ds {
		if x.Code == "QF013" && strings.Contains(x.Message, "variable B ") {
			t.Errorf("B is head-projected, not a singleton: %v", x)
		}
	}
}

func TestViewErrorsQF015(t *testing.T) {
	src := `
VIEWS:
bad(X) :- bad(X)
QUERY:
answer(B) :- bad(B) AND baskets(B,$1)
FILTER:
COUNT(answer.B) >= 2`
	ds := AnalyzeSource(src, Options{})
	d, ok := find(ds, "QF015")
	if !ok {
		t.Fatalf("want QF015, got %v", ds)
	}
	if d.Severity != SevError || !strings.Contains(d.Message, "recursive") || d.Line != 3 {
		t.Errorf("QF015 = %+v, want recursion error on line 3", d)
	}

	src = `
VIEWS:
v(X) :- baskets(X,$1)
QUERY:
answer(B) :- v(B) AND baskets(B,$1)
FILTER:
COUNT(answer.B) >= 2`
	ds = AnalyzeSource(src, Options{})
	if d, ok := find(ds, "QF015"); !ok || !strings.Contains(d.Message, "parameter-free") {
		t.Fatalf("want parameter-free QF015, got %v", ds)
	}
}

func TestSchemaQF016(t *testing.T) {
	db := storage.NewDatabase()
	db.Add(storage.NewRelation("baskets", "BID", "Item"))
	src := `
QUERY:
answer(B) :- baskets(B,$1,X) AND nosuch(B,$1)
FILTER:
COUNT(answer.B) >= 2`
	ds := AnalyzeSource(src, Options{DB: db})
	var missing, arity bool
	for _, d := range ds {
		if d.Code != "QF016" {
			continue
		}
		if d.Severity != SevError {
			t.Errorf("QF016 severity = %v", d.Severity)
		}
		if strings.Contains(d.Message, "not found") {
			missing = true
		}
		if strings.Contains(d.Message, "columns") {
			arity = true
		}
	}
	if !missing || !arity {
		t.Fatalf("want missing-relation and arity QF016s, got %v", ds)
	}
	// Without a database the pass is inert.
	if _, ok := find(AnalyzeSource(src, Options{}), "QF016"); ok {
		t.Error("QF016 must not fire without a database")
	}
}

func TestCleanProgramHasNoDiagnostics(t *testing.T) {
	src := `
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 2`
	if ds := AnalyzeSource(src, Options{}); len(ds) != 0 {
		t.Fatalf("Fig. 2 flock should lint clean, got %v", ds)
	}
}

func TestStripExplainPreservesPositions(t *testing.T) {
	src := "EXPLAIN ANALYZE QUERY:\nanswer(B) :- baskets(B,$1)\nFILTER:\nCOUNT(answer.Z) >= 2"
	ds := AnalyzeSource(src, Options{})
	d, ok := find(ds, "QF006")
	if !ok {
		t.Fatalf("want QF006 after EXPLAIN stripping, got %v", ds)
	}
	if d.Line != 4 {
		t.Errorf("position should refer to the original text: %+v", d)
	}
	if got := StripExplain("explain QUERY:x"); !strings.HasPrefix(got, "        QUERY:") {
		t.Errorf("StripExplain = %q", got)
	}
	if got := StripExplain("EXPLAINQUERY:"); got != "EXPLAINQUERY:" {
		t.Errorf("EXPLAIN must be a whole word, got %q", got)
	}
}

// TestSplitExplain is the EXPLAIN-prefix table (formerly flockql's): the
// mode, and the keywords blanked in place rather than cut away.
func TestSplitExplain(t *testing.T) {
	cases := []struct {
		src  string
		mode ExplainMode
		rest string
	}{
		{"QUERY:\nanswer(B) :- r(B,$1)", ExplainNone, "QUERY:\nanswer(B) :- r(B,$1)"},
		{"EXPLAIN\nQUERY:\nx", ExplainPlan, "       \nQUERY:\nx"},
		{"explain query:", ExplainPlan, "        query:"},
		{"  EXPLAIN ANALYZE\nQUERY:\nx", ExplainAnalyze, "                 \nQUERY:\nx"},
		{"Explain Analyze QUERY:", ExplainAnalyze, "                QUERY:"},
		{"EXPLAIN ANALYZEQUERY:", ExplainPlan, "        ANALYZEQUERY:"},
		{"EXPLAINQUERY:", ExplainNone, "EXPLAINQUERY:"},
		{"EXPLAIN", ExplainPlan, "       "},
		{"", ExplainNone, ""},
	}
	for _, c := range cases {
		mode, rest := SplitExplain(c.src)
		if mode != c.mode || rest != c.rest {
			t.Errorf("SplitExplain(%q) = (%q, %q), want (%q, %q)", c.src, mode, rest, c.mode, c.rest)
		}
	}
}

func TestDiagnosticJSONAndSort(t *testing.T) {
	ds := []Diagnostic{
		{Code: "QF013", Severity: SevWarning, Line: 9, Col: 1, Message: "w"},
		{Code: "QF002", Severity: SevError, Line: 3, Col: 5, Message: "e"},
	}
	Sort(ds)
	if ds[0].Code != "QF002" {
		t.Errorf("sort should order by position: %v", codes(ds))
	}
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"severity":"error"`) {
		t.Errorf("JSON = %s", b)
	}
	var back []Diagnostic
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back[0].Severity != SevError || back[1].Severity != SevWarning {
		t.Errorf("roundtrip = %+v", back)
	}
	if !HasErrors(ds) {
		t.Error("HasErrors should see the QF002")
	}
	if !strings.Contains(Render(ds), "[QF002]") {
		t.Errorf("Render = %q", Render(ds))
	}
}

func TestContainmentBudgetLimitsWork(t *testing.T) {
	// Many same-predicate subgoals make the containment search explode;
	// with a tiny budget the redundancy passes must stay silent, not hang.
	var b strings.Builder
	b.WriteString("QUERY:\nanswer(XA) :- p(XA,$1)")
	for i := 1; i < 14; i++ {
		b.WriteString(" AND p(X")
		b.WriteString(string(rune('A' + i)))
		b.WriteString(",$1)")
	}
	b.WriteString("\nFILTER:\nCOUNT(answer.XA) >= 2")
	ds := AnalyzeSource(b.String(), Options{ContainmentBudget: 10})
	if HasErrors(ds) {
		t.Fatalf("budgeted analysis must not error: %v", ds)
	}
}

func TestAnalyzePlanLegalityCodes(t *testing.T) {
	flockSrc := `
QUERY:
answer(P) :- exhibits(P,$s) AND treatments(P,$m)
FILTER:
COUNT(answer.P) >= 2`
	f, err := core.Parse(flockSrc)
	if err != nil {
		t.Fatal(err)
	}

	// QF020: a step whose written filter differs from the flock's (rule 1).
	ds := AnalyzePlanSource(f, `
ok($s,$m) := FILTER(($s,$m),
    answer(P) :- exhibits(P,$s) AND treatments(P,$m),
    COUNT(answer.P) >= 99
);`, Options{})
	if d, ok := find(ds, "QF020"); !ok || d.Severity != SevError || d.Line != 2 {
		t.Fatalf("want QF020 error on line 2, got %v", ds)
	}

	// QF021: duplicate step names (rule 2).
	ds = AnalyzePlanSource(f, `
okS($s) := FILTER($s,
    answer(P) :- exhibits(P,$s),
    COUNT(answer.P) >= 2
);
okS($s) := FILTER($s,
    answer(P) :- exhibits(P,$s),
    COUNT(answer.P) >= 2
);`, Options{})
	if d, ok := find(ds, "QF021"); !ok || !strings.Contains(d.Message, "defined twice") {
		t.Fatalf("want QF021, got %v", ds)
	}

	// QF022: a step not derived from the flock's rule (rule 3).
	ds = AnalyzePlanSource(f, `
okS($s) := FILTER($s,
    answer(P) :- unrelated(P,$s),
    COUNT(answer.P) >= 2
);
ok($s,$m) := FILTER(($s,$m),
    answer(P) :- okS($s) AND exhibits(P,$s) AND treatments(P,$m),
    COUNT(answer.P) >= 2
);`, Options{})
	d, ok := find(ds, "QF022")
	if !ok {
		t.Fatalf("want QF022, got %v", ds)
	}
	if d.Line != 2 || !strings.Contains(d.Message, "legality rule 3") {
		t.Errorf("QF022 = %+v, want position of step okS and rule 3 in message", d)
	}

	// QF023: final step restricting the wrong parameters (rule 4).
	ds = AnalyzePlanSource(f, `
okS($s) := FILTER($s,
    answer(P) :- exhibits(P,$s),
    COUNT(answer.P) >= 2
);`, Options{})
	if d, ok := find(ds, "QF023"); !ok || !strings.Contains(d.Message, "legality rule 4") {
		t.Fatalf("want QF023, got %v", ds)
	}

	// QF014: a dead intermediate step.
	ds = AnalyzePlanSource(f, `
okS($s) := FILTER($s,
    answer(P) :- exhibits(P,$s),
    COUNT(answer.P) >= 2
);
ok($s,$m) := FILTER(($s,$m),
    answer(P) :- exhibits(P,$s) AND treatments(P,$m),
    COUNT(answer.P) >= 2
);`, Options{})
	if d, ok := find(ds, "QF014"); !ok || d.Severity != SevWarning || d.Line != 2 {
		t.Fatalf("want QF014 warning on line 2, got %v", ds)
	}

	// A legal plan yields no diagnostics.
	ds = AnalyzePlanSource(f, `
okS($s) := FILTER($s,
    answer(P) :- exhibits(P,$s),
    COUNT(answer.P) >= 2
);
ok($s,$m) := FILTER(($s,$m),
    answer(P) :- okS($s) AND exhibits(P,$s) AND treatments(P,$m),
    COUNT(answer.P) >= 2
);`, Options{})
	if len(ds) != 0 {
		t.Fatalf("legal plan should lint clean, got %v", ds)
	}

	// QF001: plan syntax error.
	ds = AnalyzePlanSource(f, "ok($s := FILTER", Options{})
	if _, ok := find(ds, "QF001"); !ok {
		t.Fatalf("want QF001, got %v", ds)
	}
}
