// Command flockbench runs the reproduction suite: one experiment per
// figure/claim of "Query Flocks: A Generalization of Association-Rule
// Mining" (SIGMOD 1998). See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded reference output.
//
// Usage:
//
//	flockbench [-exp E1,E3] [-scale 1.0] [-seed 1998] [-workers 0] [-json] [-pprof addr] [-timeout 30s]
//
// Without -exp, the whole suite (E1–E10) runs in order; -exp selects a
// comma-separated subset; -json emits the tables as a JSON array.
// -workers sets the in-process parts every experiment's FILTER
// computations run as, split on their first parameter (0 = one per CPU,
// 1 = sequential).
//
// -json additionally turns on per-operator observability: instrumented
// experiments attach one "op_reports" entry per strategy run (joins,
// anti-joins, group-bys, filter decisions, with rows in/out and wall
// time). -pprof serves net/http/pprof and expvar on the given address for
// live profiling of long runs; the last completed experiment's reports are
// published under the expvar key "flock_last_report".
//
// -pipeline-out FILE extracts the streaming executor's pipeline metrics
// (peak buffered tuples, allocation, dictionary statistics) into FILE
// using the BENCH_pipeline.json schema; it implies metrics collection and
// composes with both output modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"queryflocks/internal/experiments"
	"queryflocks/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flockbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("flockbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "experiments to run, comma-separated (e.g. E1,E3,E6); empty runs all")
		scale   = fs.Float64("scale", 1.0, "workload scale factor (1.0 = EXPERIMENTS.md reference)")
		seed    = fs.Int64("seed", 1998, "generator seed")
		workers = fs.Int("workers", 0, "in-process parts per FILTER computation, split on its first parameter (0 = one per CPU, 1 = sequential)")
		asJSON  = fs.Bool("json", false, "emit results as a JSON array (with per-operator op_reports) instead of tables")
		pprof   = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		timeout = fs.Duration("timeout", 0, "wall-clock limit per strategy evaluation (0 = none); exceeding runs abort with a typed error")
		pipeOut = fs.String("pipeline-out", "", "write the streaming executor's pipeline metrics (BENCH_pipeline.json schema) to this file; implies metrics collection")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 {
		return fmt.Errorf("-scale must be > 0 (got %g)", *scale)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %v)", *timeout)
	}

	if *pprof != "" {
		addr, err := obs.StartDebugServer(*pprof)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "flockbench: pprof/expvar on http://%s/debug/pprof/\n", addr)
	}

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers,
		Metrics: *asJSON || *pprof != "" || *pipeOut != "", Timeout: *timeout}
	suite := experiments.Suite()
	if *exp != "" {
		suite = suite[:0:0]
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			suite = append(suite, e)
		}
	}

	if *asJSON {
		var tables []*experiments.Table
		for _, e := range suite {
			tab, err := e.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			for _, r := range tab.OpReports {
				obs.PublishReport(r)
			}
			tables = append(tables, tab)
		}
		if err := writePipeline(*pipeOut, cfg, *exp, tables); err != nil {
			return err
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(tables)
	}

	fmt.Fprintf(out, "query-flocks reproduction suite (scale %.2f, seed %d)\n\n", cfg.Scale, cfg.Seed)
	failed := 0
	var tables []*experiments.Table
	for _, e := range suite {
		start := time.Now()
		tab, err := e.Run(cfg)
		if err != nil {
			failed++
			fmt.Fprintf(out, "%s FAILED: %v\n\n", e.ID, err)
			continue
		}
		for _, r := range tab.OpReports {
			obs.PublishReport(r)
		}
		tables = append(tables, tab)
		fmt.Fprintln(out, tab)
		fmt.Fprintf(out, "(%s total %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return writePipeline(*pipeOut, cfg, *exp, tables)
}

// pipelineFile is the BENCH_pipeline.json schema: the command line that
// regenerates the file, the workload knobs, and each experiment's
// pipeline metrics.
type pipelineFile struct {
	Generator   string               `json:"generator"`
	Scale       float64              `json:"scale"`
	Seed        int64                `json:"seed"`
	Experiments []pipelineExperiment `json:"experiments"`
}

type pipelineExperiment struct {
	ID       string                       `json:"id"`
	Title    string                       `json:"title"`
	Pipeline []experiments.PipelineMetric `json:"pipeline"`
}

// writePipeline writes the pipeline metrics of every table that
// recorded them. A table with no pipeline metrics (the experiment does
// not call AddPipeline) is skipped, not an error; an empty path is a
// no-op.
func writePipeline(path string, cfg experiments.Config, exp string, tables []*experiments.Table) error {
	if path == "" {
		return nil
	}
	gen := "go run ./cmd/flockbench"
	if exp != "" {
		gen += " -exp " + exp
	}
	gen += fmt.Sprintf(" -scale %g -seed %d -json", cfg.Scale, cfg.Seed)
	if cfg.Workers != 0 {
		gen += fmt.Sprintf(" -workers %d", cfg.Workers)
	}
	gen += " -pipeline-out " + path
	pf := pipelineFile{Generator: gen, Scale: cfg.Scale, Seed: cfg.Seed}
	for _, t := range tables {
		if len(t.Pipeline) == 0 {
			continue
		}
		pf.Experiments = append(pf.Experiments, pipelineExperiment{ID: t.ID, Title: t.Title, Pipeline: t.Pipeline})
	}
	if len(pf.Experiments) == 0 {
		return fmt.Errorf("-pipeline-out: no selected experiment records pipeline metrics")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
