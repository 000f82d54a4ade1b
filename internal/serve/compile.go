package serve

import (
	"fmt"
	"net/http"

	"queryflocks/internal/analysis"
	"queryflocks/internal/cluster"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// MaxProgramBytes caps a posted program. Front-ends read one spare byte
// so an over-limit program is *detected* and refused with 413 — silently
// truncating at the limit is dangerous because a truncated flock can
// still parse as a different valid program.
const MaxProgramBytes = 1 << 20

// Program is a compiled flock: parsed once, linted, constructed, and
// checked against a database. The parse result is shared by the linter,
// the evaluator, and the canonicalizer that derives cache keys.
type Program struct {
	// Mode is the source's EXPLAIN prefix, if any.
	Mode   analysis.ExplainMode
	Source *datalog.FlockSource
	Flock  *core.Flock
	// Warnings are the analyzer's findings; none is error-severity.
	Warnings []analysis.Diagnostic

	text, canon string // source and canonical text, set for prepared flocks
}

// Compile is the whole compile stage: parse once → lint → construct →
// check against the pipeline's database (a pipeline over a nil database
// skips the check). lint is the front-end's analyzer configuration (its
// file name; a DB for schema-aware linting).
func (p *Pipeline) Compile(src string, lint analysis.Options) (*Program, error) {
	mode, fs, err := parse(src, lint)
	if err != nil {
		return nil, err
	}
	prog, err := build(fs, p.Snapshot(), lint)
	if err != nil {
		return nil, err
	}
	prog.Mode = mode
	return prog, nil
}

// parse is the first half of the compile stage: the size cap, the
// EXPLAIN prefix, and the one parse of the program text.
func parse(src string, lint analysis.Options) (analysis.ExplainMode, *datalog.FlockSource, error) {
	if len(src) > MaxProgramBytes {
		return "", nil, statusErrorf(http.StatusRequestEntityTooLarge,
			"program exceeds the %d-byte limit (a truncated flock could evaluate as a different program)", MaxProgramBytes)
	}
	mode, text := analysis.SplitExplain(src)
	fs, err := datalog.ParseFlock(text)
	if err != nil {
		return "", nil, &Rejected{Msg: err.Error(), Diagnostics: []analysis.Diagnostic{analysis.ParseDiagnostic(err, lint)}}
	}
	return mode, fs, nil
}

// build is the second half — what a plan-cache hit skips. The analyzer
// runs before any evaluation work: error-severity findings reject the
// program with the structured diagnostics (with positions, unlike the
// constructor's errors); warnings ride along in the Program.
func build(fs *datalog.FlockSource, db *storage.Database, lint analysis.Options) (*Program, error) {
	diags := analysis.AnalyzeFlockSource(fs, lint)
	if analysis.HasErrors(diags) {
		return nil, &Rejected{Msg: "flock rejected by static analysis; see diagnostics", Diagnostics: diags}
	}
	flock, err := core.NewWithViews(fs.Views, fs.Query, fs.Filter)
	if err != nil {
		return nil, err
	}
	if db != nil {
		if err := flock.CheckDatabase(db); err != nil {
			return nil, err
		}
	}
	return &Program{Source: fs, Flock: flock, Warnings: diags}, nil
}

// lintOptions builds the served entry points' analyzer options: the
// schema snapshot plus, in coordinator mode, the QF024 shardability hook
// — a closure over the shard map and the requested strategy, so the
// analysis package never imports the cluster machinery. Pass strategy ""
// when none is known yet (prepare/restore paths): the hook then checks
// only the shard map's legality rules.
func (p *Pipeline) lintOptions(db *storage.Database, strategy string) analysis.Options {
	opts := analysis.Options{DB: db}
	co := p.cfg.Cluster
	if co == nil {
		return opts
	}
	opts.Shardable = func(fs *datalog.FlockSource) (bool, string) {
		if st, err := lookupStrategy(strategy, false); strategy != "" && (err != nil || !st.memo) {
			return false, fmt.Sprintf("the %q strategy never scatters (it stays coordinator-local by design)", strategy)
		}
		flock, err := core.NewWithViews(fs.Views, fs.Query, fs.Filter)
		if err != nil {
			// Construction failures get their own error elsewhere; the
			// shardability pass has nothing to add.
			return true, ""
		}
		return cluster.Shardable(co.Map, flock.Params, flock.Query, flock.Filter)
	}
	return opts
}
