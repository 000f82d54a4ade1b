package analysis

import (
	"errors"
	"fmt"
	"strings"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// DefaultContainmentBudget caps the backtracking containment-mapping
// search (§3.1) per query pair. Adversarial inputs — many same-predicate
// subgoals — make the search exponential; past the budget the redundancy
// passes stay silent rather than stall.
const DefaultContainmentBudget = 100_000

// Options configures an analysis run.
type Options struct {
	// File names the source in diagnostics ("<input>" when empty).
	File string
	// DB, when non-nil, enables the schema checks (QF016): every referenced
	// relation must exist with a compatible arity.
	DB *storage.Database
	// ContainmentBudget overrides DefaultContainmentBudget (0 = default,
	// negative = unlimited).
	ContainmentBudget int
	// Shardable, when non-nil, enables the cluster-shardability pass
	// (QF024): it reports whether the serving cluster can scatter the
	// flock's FILTER computation, with a one-line reason when it cannot
	// (a coordinator-local fallback). Coordinators inject it, closing
	// over their shard map and the request's strategy; single-node runs
	// leave it nil. The hook lives here as a closure so this package
	// never imports the cluster machinery.
	Shardable func(fs *datalog.FlockSource) (ok bool, reason string)
}

func (o Options) budget() int {
	if o.ContainmentBudget == 0 {
		return DefaultContainmentBudget
	}
	return o.ContainmentBudget
}

// AnalyzeSource parses and analyzes a flock program. Parse failures yield
// a single QF001 diagnostic; otherwise the full pass registry runs. The
// result is sorted (see Sort) and never nil-vs-empty significant: callers
// should test HasErrors / len.
func AnalyzeSource(src string, opts Options) []Diagnostic {
	fs, err := datalog.ParseFlock(StripExplain(src))
	if err != nil {
		return []Diagnostic{syntaxDiagnostic(err, opts)}
	}
	return AnalyzeFlockSource(fs, opts)
}

// AnalyzeFlockSource runs every semantic pass over a parsed flock source.
func AnalyzeFlockSource(fs *datalog.FlockSource, opts Options) []Diagnostic {
	a := &analyzer{fs: fs, opts: opts}
	for _, pass := range passes {
		pass(a)
	}
	ds := a.diags
	for i := range ds {
		ds[i].File = opts.File
	}
	Sort(ds)
	return ds
}

// analyzer accumulates diagnostics across the passes.
type analyzer struct {
	fs    *datalog.FlockSource
	opts  Options
	diags []Diagnostic
}

func (a *analyzer) report(code string, sev Severity, pos datalog.Pos, format string, args ...any) {
	a.diags = append(a.diags, Diagnostic{
		Code:     code,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	}.at(pos))
}

// passes is the registry of semantic passes, run in order. Each pass is
// independent; a program failing one pass still runs the others, so a
// single lint reports every problem at once.
var passes = []func(*analyzer){
	passViews,            // QF015: view discipline (§2.2 extension)
	passSafety,           // QF002: safety conditions 1–3 (§3.2–§3.3)
	passParamsInHead,     // QF003: parameters may not appear in heads
	passUnboundParams,    // QF004: every parameter positive in every rule
	passNoParams,         // QF005: a flock must have parameters
	passFilter,           // QF006/QF007/QF008: filter resolution & §5 monotonicity
	passComparisons,      // QF011/QF012: unsatisfiable / tautological arithmetic
	passRedundantSubgoal, // QF009: containment-redundant subgoals (§3.1)
	passSubsumedBranch,   // QF010: subsumed union branches (§3.4)
	passSingletonVars,    // QF013: variables used only once
	passSchema,           // QF016: relations exist with matching arity
	passShardable,        // QF024: cluster-mode coordinator-local fallback
}

// passShardable surfaces a coordinator-local fallback at lint time: in
// cluster mode, a flock (or a requested strategy) the shard map cannot
// legally partition still answers correctly, but on the coordinator
// alone — usually a surprise worth a warning. Single-node runs skip the
// pass (no hook).
func passShardable(a *analyzer) {
	if a.opts.Shardable == nil {
		return
	}
	if ok, reason := a.opts.Shardable(a.fs); !ok {
		a.report("QF024", SevWarning, datalog.Pos{},
			"not shardable: %s; the coordinator will evaluate this flock locally instead of scattering it", reason)
	}
}

// syntaxDiagnostic converts a parse error into a QF001 diagnostic,
// recovering the source position when the parser provided one.
func syntaxDiagnostic(err error, opts Options) Diagnostic {
	d := Diagnostic{Code: "QF001", Severity: SevError, File: opts.File}
	if se, ok := asSyntaxError(err); ok {
		d = d.at(se.Pos)
		d.Message = se.Msg
	} else {
		d.Message = strings.TrimPrefix(err.Error(), "datalog: ")
	}
	return d
}

func asSyntaxError(err error) (*datalog.SyntaxError, bool) {
	var se *datalog.SyntaxError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}

// ExplainMode is the EXPLAIN prefix a flock source may carry.
type ExplainMode string

const (
	ExplainNone    ExplainMode = ""        // no prefix: evaluate
	ExplainPlan    ExplainMode = "explain" // EXPLAIN: show the plan, do not execute
	ExplainAnalyze ExplainMode = "analyze" // EXPLAIN ANALYZE: execute, render the observed operator tree
)

// SplitExplain is the one EXPLAIN-prefix parser: it recognises a leading
// EXPLAIN or EXPLAIN ANALYZE (case-insensitive, whitespace-delimited,
// before the QUERY: section) and returns the mode plus the source with the
// keywords replaced by spaces, so every later source position still refers
// to the original text.
func SplitExplain(src string) (ExplainMode, string) {
	mode, pos := ExplainNone, 0
	for _, kw := range []struct {
		word string
		mode ExplainMode
	}{{"EXPLAIN", ExplainPlan}, {"ANALYZE", ExplainAnalyze}} {
		start := len(src) - len(strings.TrimLeft(src[pos:], " \t\r\n"))
		end := start + len(kw.word)
		if end > len(src) || !strings.EqualFold(src[start:end], kw.word) {
			break
		}
		if end < len(src) && !strings.ContainsRune(" \t\r\n", rune(src[end])) {
			break
		}
		src = src[:start] + strings.Repeat(" ", len(kw.word)) + src[end:]
		mode, pos = kw.mode, end
	}
	return mode, src
}

// StripExplain is SplitExplain for callers that lint or evaluate the
// underlying program whatever its prefix.
func StripExplain(src string) string {
	_, text := SplitExplain(src)
	return text
}
