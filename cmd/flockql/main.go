// Command flockql evaluates a query flock over CSV relations.
//
// Usage:
//
//	flockql -data DIR [flags] FLOCK_FILE
//
// DIR holds one CSV file per relation (header row = column names; the
// file's base name is the relation name). Alternatively -data-dir opens a
// data directory created by flockgen -data-dir, with -engine choosing
// between materializing it (memory) and reading each relation's column
// file at its first touch (disk). FLOCK_FILE holds a flock in the
// paper's notation:
//
//	QUERY:
//	answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
//	FILTER:
//	COUNT(answer.B) >= 20
//
// Strategies:
//
//	direct     evaluate the flock by grouping (default)
//	naive      generate-and-test reference semantics (slow; small data)
//	static     cost-based static plan (§4.3 heuristic 1)
//	exhaustive exponential search over filter subsets (§4.3, cost model)
//	levelwise  level-wise a-priori plan (§4.3 heuristic 2)
//	cascade    prefix cascade plan (Fig. 7); see -depth
//	dynamic    dynamic filter selection (§4.4)
//	plan       execute the FILTER-step plan in -plan (Fig. 5 notation)
//
// Other modes: -sql prints the SQL translation and exits; -explain prints
// safe subqueries, the chosen plan, and (for dynamic) the decisions.
//
// Every flock file is linted on load with the internal/analysis passes
// (the same checks flockvet runs): error-severity diagnostics abort the
// run before evaluation, warnings print to stderr and the run continues.
//
// A flock source may begin with EXPLAIN or EXPLAIN ANALYZE:
//
//	EXPLAIN          print the candidate subqueries, the chosen join
//	                 order, and the chosen plan — without executing
//	EXPLAIN ANALYZE  execute, then render the observed operator tree
//	                 (per-step cardinalities, workers, wall time)
//
// -metrics json prints the run's machine-readable operator report (the
// same obs.RunReport schema flockbench -json embeds) to stdout.
//
// -timeout bounds the evaluation's wall clock; a run that exceeds it
// aborts promptly with a typed cancellation error.
//
// -i starts the interactive shell (see repl); the session begins from
// -strategy, -depth, -plan, -workers, -timeout and -explain.
//
// Both modes are front-ends of the one request pipeline flockd serves
// (internal/serve): compile (parse once, lint, construct, schema-check),
// plan (the strategy table), execute, report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"queryflocks/internal/analysis"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/planner"
	"queryflocks/internal/serve"
	"queryflocks/internal/sqlgen"
	"queryflocks/internal/storage"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flockql:", err)
		os.Exit(1)
	}
}

// session is what file mode and the REPL share: the request pipeline over
// the loaded relations, and the evaluation settings the flags start (and
// the REPL's backslash commands change).
type session struct {
	pipe    *serve.Pipeline
	req     serve.Request // Strategy and Side; Trace is set per flock
	explain bool
	// File mode lists every answer row (unless quiet) and may append the
	// operator report as JSON; the REPL shows the first 25.
	quiet, metrics bool
	maxRows        int
}

func run(args []string) error {
	fs := flag.NewFlagSet("flockql", flag.ContinueOnError)
	var (
		dataDir     = fs.String("data", ".", "directory of CSV relations")
		segDir      = fs.String("data-dir", "", "data directory created by flockgen -data-dir; overrides -data")
		engine      = fs.String("engine", "memory", "storage engine for -data-dir: memory (materialize at open) or disk (read column files at first touch)")
		strategy    = fs.String("strategy", "direct", "direct|naive|static|exhaustive|levelwise|cascade|dynamic|plan")
		planFile    = fs.String("plan", "", "plan file (for -strategy plan)")
		depth       = fs.Int("depth", 2, "cascade depth (for -strategy cascade)")
		printSQL    = fs.Bool("sql", false, "print the SQL translation and exit")
		explain     = fs.Bool("explain", false, "print subqueries, plans, and decisions")
		quiet       = fs.Bool("quiet", false, "suppress the answer listing (timing only)")
		interactive = fs.Bool("i", false, "interactive shell over the loaded relations; starts from -strategy, -workers, -timeout and -explain")
		workers     = fs.Int("workers", 0, "in-process parts per FILTER computation, split on its first parameter (0 = one per CPU, 1 = sequential)")
		metrics     = fs.String("metrics", "", `"json" prints the run's operator report (obs.RunReport) to stdout`)
		timeout     = fs.Duration("timeout", 0, "wall-clock limit for the evaluation (0 = none); exceeding runs abort with a typed error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %v)", *timeout)
	}
	if *metrics != "" && *metrics != "json" {
		return fmt.Errorf("unknown -metrics format %q (only \"json\")", *metrics)
	}
	eng, err := storage.ParseEngine(*engine)
	if err != nil {
		return err
	}
	if *engine == "disk" && *segDir == "" {
		return fmt.Errorf("-engine disk requires -data-dir (CSV loading is memory-only)")
	}
	if !*interactive && fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one flock file, got %d args", fs.NArg())
	}

	s := &session{
		explain: *explain, quiet: *quiet, metrics: *metrics == "json", maxRows: -1,
		req: serve.Request{Strategy: *strategy, Side: serve.Side{Depth: *depth}},
	}
	if *planFile != "" {
		src, err := os.ReadFile(*planFile)
		if err != nil {
			return err
		}
		if s.req.Side.Plan, err = datalog.ParsePlan(string(src)); err != nil {
			return err
		}
	}
	// -sql translates without touching the data, so it compiles against
	// no database (no schema check).
	var db *storage.Database
	if *interactive || !*printSQL {
		if *segDir != "" {
			db, _, err = storage.OpenDir(*segDir, eng)
		} else {
			db, err = storage.LoadDir(*dataDir)
		}
		if err != nil {
			return err
		}
	}
	s.pipe = serve.New(db, serve.Config{Workers: *workers, Timeout: *timeout})
	if *interactive {
		s.maxRows = 25
		return s.repl(os.Stdin, os.Stdout)
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := s.compile(os.Stderr, string(src), fs.Arg(0))
	if errors.As(err, new(*serve.Rejected)) {
		return fmt.Errorf("%s has lint errors", fs.Arg(0))
	}
	if err != nil {
		return err
	}
	if *printSQL {
		sql, err := sqlgen.FlockSQL(prog.Flock)
		if err != nil {
			return err
		}
		fmt.Println(sql + ";")
		return nil
	}
	return s.eval(os.Stdout, os.Stderr, prog)
}

// compile runs the pipeline's compile stage on one flock source, so both
// modes lint on load: error-severity diagnostics stop the flock before
// any evaluation (the error is a *serve.Rejected), warnings do not. The
// analyzer's findings are rendered to w either way.
func (s *session) compile(w io.Writer, src, file string) (*serve.Program, error) {
	prog, err := s.pipe.Compile(src, analysis.Options{File: file})
	if err != nil {
		fmt.Fprint(w, analysis.Render(serve.Classify(err).Diagnostics))
		return nil, err
	}
	fmt.Fprint(w, analysis.Render(prog.Warnings))
	return prog, nil
}

// eval handles one compiled flock under the session's settings. EXPLAIN
// shows what would run — subqueries, join order, plan — without executing;
// otherwise the flock runs and out receives the answer listing (EXPLAIN
// ANALYZE: the observed operator tree instead), foot the timing line.
func (s *session) eval(out, foot io.Writer, prog *serve.Program) error {
	if s.explain || prog.Mode == analysis.ExplainPlan {
		explainFlock(out, prog.Flock)
	}
	if prog.Mode == analysis.ExplainPlan {
		return s.explainStatic(out, prog.Flock)
	}
	req := s.req
	req.Trace = prog.Mode == analysis.ExplainAnalyze || s.metrics
	start := time.Now()
	res, err := s.pipe.Run(prog, req)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if s.explain {
		if res.Plan != nil {
			fmt.Fprintf(out, "executed %s plan:\n%s\nstep sizes: %s\n\n", res.Strategy, res.Plan, res.Steps)
		}
		for _, d := range res.Decisions {
			fmt.Fprintf(out, "decision: %s\n", d)
		}
	}
	if prog.Mode == analysis.ExplainAnalyze {
		fmt.Fprintln(out, res.Report.Tree())
	} else if !s.quiet {
		printAnswer(out, res.Answer, s.maxRows)
	}
	if s.metrics {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res.Report); err != nil {
			return err
		}
	}
	fmt.Fprintf(foot, "%d answers in %v (%s strategy)\n", res.Answer.Len(), elapsed.Round(time.Millisecond), res.Strategy)
	return nil
}

// explainStatic prints the plan-side view of a flock without executing it:
// the greedy join order each rule would use and, per strategy, the chosen
// FILTER-step plan or the compiled physical plan.
func (s *session) explainStatic(w io.Writer, flock *core.Flock) error {
	db, strategy := s.pipe.Snapshot(), s.req.Strategy
	// Views participate in join ordering by their materialized size, so
	// materialize them first (cheap relative to the main query).
	vdb, err := flock.MaterializeViews(db, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "join order (greedy, smallest relation first):")
	for ri, r := range flock.Query {
		order, err := eval.JoinOrder(vdb, r)
		if err != nil {
			return err
		}
		atoms := r.PositiveAtoms()
		parts := make([]string, len(order))
		for i, idx := range order {
			parts[i] = atoms[idx].String()
		}
		fmt.Fprintf(w, "  rule %d: %s\n", ri+1, strings.Join(parts, " ⋈ "))
	}
	fmt.Fprintln(w)

	plan, err := serve.Plan(strategy, flock, db, s.req.Side)
	if err != nil {
		return err
	}
	switch {
	case plan != nil:
		fmt.Fprintf(w, "chosen %s plan:\n%s\n", strategy, plan)
		steps, err := plan.CompileSteps(vdb)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nphysical plans per FILTER step (join orders re-resolve at run time against actual step sizes):")
		for _, st := range steps {
			fmt.Fprintf(w, "step %s:\n%s\n", st.Name, st.Plan.Explain())
		}
	case strategy == "direct":
		phys, err := core.CompileDirect(vdb, flock)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "physical plan (direct):\n%s\n", phys.Explain())
	case strategy == "dynamic":
		phys, err := planner.CompileDynamic(vdb, flock, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "physical plan (dynamic; each materialize barrier decides at run time whether to FILTER):\n%s\n", phys.Explain())
	default:
		fmt.Fprintf(w, "strategy %q decides at run time; use EXPLAIN ANALYZE to observe it\n", strategy)
	}
	return nil
}

func explainFlock(w io.Writer, flock *core.Flock) {
	fmt.Fprintf(w, "flock:\n%s\n\n", flock)
	fmt.Fprintln(w, "safe subqueries (candidate pre-filters, §3):")
	for ri, r := range flock.Query {
		if len(flock.Query) > 1 {
			fmt.Fprintf(w, "rule %d:\n", ri+1)
		}
		for _, s := range core.EnumerateSubqueries(r) {
			fmt.Fprintf(w, "  params %-12v %s\n", s.Params, s.Rule)
		}
	}
	fmt.Fprintln(w)
}

// printAnswer lists the answer as TSV, header first, in sorted order; a
// non-negative limit truncates the listing with a "... (N more)" line.
func printAnswer(w io.Writer, answer *storage.Relation, limit int) {
	fmt.Fprintln(w, strings.Join(answer.Columns(), "\t"))
	for i, t := range answer.Sorted() {
		if i == limit {
			fmt.Fprintf(w, "... (%d more)\n", answer.Len()-limit)
			break
		}
		cells := make([]string, len(t))
		for j, v := range t {
			cells[j] = v.String()
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
}
