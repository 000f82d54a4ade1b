// Command bench measures query-flock evaluation end to end and layer by
// layer: one flock from source text to answer through the library path
// flockql uses, and interactive sessions against flockd — solo, disk
// backed, mutating, and sharded. See README.md for the workloads, the
// metrics and how they interact.
//
// Usage (from the repository root; run.sh builds this program first):
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of output is the result
//	bash bench/run.sh [-seed N] [-seconds S] [-repeats R] [-out FILE]
//	    every workload, untraced then traced, each in a fresh process;
//	    prints a table and one JSON document
//	bash bench/run.sh -smoke
//	    the same at a fraction of the length, as a self-check
//	bash bench/run.sh -compare A.json[,A2.json...] B.json[,B2.json...]
//	    judges B against A on every (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	root     string
	flockd   string
	detail   string
	out      string
	repeats  int
	smoke    bool
	compare  bool

	batchChild bool
	dir        string
	launched   int64
	setupOnly  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print its result as the last line")
	fs.Int64Var(&o.seed, "seed", 1998, "seed of the generated database and request schedule")
	fs.Float64Var(&o.seconds, "seconds", 12, "length of one measured phase")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.root, "root", "", "repository root (default: found from the working directory)")
	fs.StringVar(&o.flockd, "flockd", "", "flockd binary to measure (default: built from -root)")
	fs.StringVar(&o.detail, "detail", "", "with -workload: also write the run's full detail to this file")
	fs.StringVar(&o.out, "out", "", "without -workload: write the JSON document here instead of to standard output")
	fs.IntVar(&o.repeats, "repeats", 1, "without -workload: untraced runs per workload")
	fs.BoolVar(&o.smoke, "smoke", false, "short runs of every workload with all checks on")
	fs.BoolVar(&o.compare, "compare", false, "compare two sets of documents: -compare A.json[,...] B.json[,...]")
	fs.BoolVar(&o.batchChild, "batch-child", false, "internal: the batch workload's fresh process")
	fs.StringVar(&o.dir, "dir", "", "internal: the run's input directory")
	fs.Int64Var(&o.launched, "launched", 0, "internal: when the parent started this process, in Unix ns")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: stop after set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	err := dispatch(o, fs.Args(), stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func dispatch(o options, rest []string, stdout, stderr io.Writer) error {
	if o.compare {
		if len(rest) != 2 {
			return fmt.Errorf("-compare takes two arguments: A.json[,...] B.json[,...]")
		}
		return compareDocs(strings.Split(rest[0], ","), strings.Split(rest[1], ","), stdout)
	}
	root, err := findRoot(o.root)
	if err != nil {
		return err
	}
	p := runParams{root: root, flockdBin: o.flockd, seed: o.seed, trace: o.trace == 1, smoke: o.smoke,
		duration: time.Duration(o.seconds * float64(time.Second)), setups: 3}
	if o.smoke {
		p.setups = 1
	}
	if o.batchChild {
		wl, err := findWorkload("batch.corpus")
		if err != nil {
			return err
		}
		return batchChild(wl, p, o.dir, time.Unix(0, o.launched), o.setupOnly, stdout)
	}
	if o.workload == "" {
		return runAll(o, p, stdout, stderr)
	}

	wl, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	workDir := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	// An interrupted run must not leave servers or input copies behind.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		killLive()
		os.RemoveAll(workDir)
		os.Exit(1)
	}()
	if wl.serve() && p.flockdBin == "" {
		p.flockdBin = filepath.Join(build, "flockd")
		if err := buildFlockd(root, p.flockdBin); err != nil {
			return err
		}
	}
	ph, err := runWorkload(wl, p, workDir)
	if err != nil {
		return err
	}
	for _, m := range ph.Messages {
		fmt.Fprintln(stderr, "bench: failed op:", m)
	}
	res, err := toResult(ph, p.trace, p.smoke)
	if err != nil {
		return err
	}
	if p.trace {
		if err := writeTrace(root, wl, o.seed, ph); err != nil {
			return err
		}
	}
	if o.detail != "" {
		ph.Spans = nil // the trace file has them
		raw, err := json.Marshal(ph)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.detail, raw, 0o644); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	return nil
}

// findRoot locates the repository: the directory whose go.mod declares
// module queryflocks, at or above the working directory.
func findRoot(flagged string) (string, error) {
	if flagged != "" {
		return filepath.Abs(flagged)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module queryflocks\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod declaring module queryflocks at or above the working directory; pass -root")
		}
		dir = parent
	}
}

// traceFile is bench/out/trace-<workload>.json: every span of the traced
// phase, plus the per-op-type summary computed from them.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	ByOpType map[string]opSummary `json:"by_op_type"`
	Spans    []span               `json:"spans"`
}

func writeTrace(root string, wl workloadDef, seed int64, ph *phase) error {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(traceFile{Workload: wl.Name, Seed: seed, ByOpType: ph.ByOpType, Spans: ph.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+wl.Name+".json"), raw, 0o644)
}
