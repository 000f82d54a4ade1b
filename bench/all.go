package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// document is the output of one invocation over every workload; it is
// what -compare reads and what baseline.json holds.
type document struct {
	Generator   string                  `json:"generator"`
	Seed        int64                   `json:"seed"`
	Seconds     float64                 `json:"seconds"`
	Go          string                  `json:"go"`
	NProc       int                     `json:"nproc"`
	FlushPolicy string                  `json:"flush_policy"`
	EndToEnd    []metricDef             `json:"end_to_end"`
	Workloads   map[string]*workloadDoc `json:"workloads"`
}

// workloadDoc holds one workload's numbers: each end-to-end metric once
// per untraced repeat, the traced run's per-layer metrics, and the
// traced throughput as a share of the untraced.
type workloadDoc struct {
	Why           string                 `json:"why"`
	Clients       int                    `json:"clients"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	ErrorRate     float64                `json:"error_rate"`
	EndToEnd      map[string]*repeated   `json:"end_to_end"`
	PerLayer      map[string]metricValue `json:"per_layer"`
	TraceOverhead float64                `json:"trace_overhead"`
	ByOpType      map[string]opSummary   `json:"by_op_type"`
}

type repeated struct {
	Values []float64 `json:"values"`
	Unit   string    `json:"unit"`
}

// runAll runs every workload in fresh child processes of this binary —
// untraced o.repeats times, then traced at a quarter of the length — and
// prints the table and the document. It fails if any op failed.
func runAll(o options, p runParams, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	build := filepath.Join(p.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	if p.flockdBin == "" {
		p.flockdBin = filepath.Join(build, "flockd")
		if err := buildFlockd(p.root, p.flockdBin); err != nil {
			return err
		}
	}
	seconds, traced := o.seconds, o.seconds/4
	if o.smoke {
		seconds, traced = 0.25, 0.25
	}
	doc := &document{
		Generator: "bash bench/run.sh " + strings.Join(os.Args[1:], " "), Seed: o.seed, Seconds: seconds,
		Go: runtime.Version(), NProc: runtime.NumCPU(), FlushPolicy: flushPolicy,
		EndToEnd: endToEnd, Workloads: map[string]*workloadDoc{},
	}
	child := func(wl workloadDef, trace int, secs float64, detail string) (result, error) {
		args := []string{"-workload", wl.Name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", fmt.Sprint(secs), "-trace", strconv.Itoa(trace), "-root", p.root,
			"-flockd", p.flockdBin, "-smoke=" + strconv.FormatBool(o.smoke)}
		if detail != "" {
			args = append(args, "-detail", detail)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s (trace %d): %w", wl.Name, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		err = json.Unmarshal(lines[len(lines)-1], &res)
		return res, err
	}
	failed := 0
	for _, wl := range workloads {
		wd := &workloadDoc{Why: wl.Why, Clients: wl.Clients, EndToEnd: map[string]*repeated{}, PerLayer: map[string]metricValue{}}
		doc.Workloads[wl.Name] = wd
		for i := 0; i < max(1, o.repeats); i++ {
			fmt.Fprintf(stderr, "bench: %s untraced %d/%d\n", wl.Name, i+1, max(1, o.repeats))
			res, err := child(wl, 0, seconds, "")
			if err != nil {
				return err
			}
			wd.Attempted += res.Attempted
			wd.Failed += res.Failed
			for name, v := range res.Metrics {
				r := wd.EndToEnd[name]
				if r == nil {
					r = &repeated{Unit: v.Unit}
					wd.EndToEnd[name] = r
				}
				r.Values = append(r.Values, v.Value)
			}
		}
		fmt.Fprintf(stderr, "bench: %s traced\n", wl.Name)
		detail := filepath.Join(build, fmt.Sprintf("detail-%d.json", os.Getpid()))
		res, err := child(wl, 1, traced, detail)
		if err != nil {
			return err
		}
		wd.Attempted += res.Attempted
		wd.Failed += res.Failed
		wd.ErrorRate = float64(wd.Failed) / float64(wd.Attempted)
		wd.PerLayer = res.Metrics
		if base := median(wd.EndToEnd["throughput_ops_s"].Values); base > 0 {
			wd.TraceOverhead = res.Metrics["trace.throughput_ops_s"].Value / base
		}
		raw, err := os.ReadFile(detail)
		os.Remove(detail)
		if err != nil {
			return err
		}
		var ph phase
		if err := json.Unmarshal(raw, &ph); err != nil {
			return err
		}
		wd.ByOpType = ph.ByOpType
		failed += wd.Failed
	}

	printTable(stdout, doc)
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if o.out != "" {
		err = os.WriteFile(o.out, append(raw, '\n'), 0o644)
	} else {
		_, err = fmt.Fprintf(stdout, "%s\n", raw)
	}
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed their checks", failed)
	}
	return nil
}

// printTable prints every metric of every workload by name with its unit.
func printTable(w io.Writer, doc *document) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "flush policy:\t%s\n", doc.FlushPolicy)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit")
	for _, wl := range workloads {
		wd := doc.Workloads[wl.Name]
		if wd == nil {
			continue
		}
		for _, m := range endToEnd {
			if r := wd.EndToEnd[m.Name]; r != nil {
				fmt.Fprintf(tw, "%s\t%s\t%.4f\t%s\n", wl.Name, m.Name, median(r.Values), r.Unit)
			}
		}
		fmt.Fprintf(tw, "%s\terror_rate\t%g\tfraction\n", wl.Name, wd.ErrorRate)
		fmt.Fprintf(tw, "%s\ttrace_overhead\t%.4f\tratio\n", wl.Name, wd.TraceOverhead)
		for _, m := range perLayer {
			if v, ok := wd.PerLayer[m.Name]; ok {
				fmt.Fprintf(tw, "%s\t%s\t%.4f\t%s\n", wl.Name, m.Name, v.Value, v.Unit)
			}
		}
	}
	tw.Flush()
}
