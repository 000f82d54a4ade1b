// Package experiments implements the reproduction suite: one experiment
// per figure or quantitative claim of the paper (see DESIGN.md §4 for the
// index). Each experiment builds its workload, runs the competing
// strategies, and returns a Table that cmd/flockbench prints and
// EXPERIMENTS.md records.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"queryflocks/internal/core"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/storage"
)

// Table is a rendered experiment result. The struct marshals directly to
// JSON for machine-readable output (flockbench -json).
type Table struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string `json:"id"`
	// Title describes the experiment and the paper artifact it reproduces.
	Title string `json:"title"`
	// Header names the columns.
	Header []string `json:"header"`
	// Rows holds the measurements.
	Rows [][]string `json:"rows"`
	// Notes carries the claim being checked and the observed verdict.
	Notes []string `json:"notes,omitempty"`
	// OpReports carries per-operator observability reports, one per
	// instrumented strategy run, when the configuration enables metrics
	// collection (flockbench -json).
	OpReports []*obs.RunReport `json:"op_reports,omitempty"`
	// Pipeline compares the streaming executor against the materializing
	// baseline (peak buffered tuples, allocation) per workload, when
	// metrics collection is enabled.
	Pipeline []PipelineMetric `json:"pipeline,omitempty"`
}

// PipelineMetric is one streaming-vs-materializing comparison: the
// streaming executor's peak buffered-tuples gauge against the
// materializing baseline's peak live intermediate tuples, plus the
// total bytes each mode allocated for the same evaluation. Both modes
// report through the same obs gauge: the streaming executor tracks
// retained operator state (group accumulators, dedup sets, sink
// inserts), the materializing baseline tracks the relations a
// relation-at-a-time operator holds live simultaneously (probe bindings
// plus join output; extended relation plus group map plus answer).
type PipelineMetric struct {
	Name             string `json:"name"`
	PeakStream       int    `json:"peak_stream_tuples"`
	PeakMaterialize  int    `json:"peak_materialize_tuples"`
	AllocStream      int64  `json:"alloc_stream_bytes"`
	AllocMaterialize int64  `json:"alloc_materialize_bytes"`
	// Dictionary statistics of the columnar run: distinct equality
	// classes (incl. the null sentinel) and the intern hit/miss split.
	DictSize     int    `json:"dict_size"`
	InternHits   uint64 `json:"intern_hits"`
	InternMisses uint64 `json:"intern_misses"`
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddReport aggregates an instrumented run's trace into an operator report
// and appends it. A nil trace (metrics collection off) is a no-op, so
// experiments thread Config.Instrument results through unconditionally.
func (t *Table) AddReport(tr *eval.Trace, strategy string, workers, answerRows int) {
	if tr == nil {
		return
	}
	t.OpReports = append(t.OpReports, tr.Report(strategy, workers, answerRows))
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config scales the experiment workloads.
type Config struct {
	// Scale multiplies the default workload sizes; 1.0 is the EXPERIMENTS
	// reference scale. Smaller values keep CI fast.
	Scale float64
	// Seed drives every generator.
	Seed int64
	// Workers is the join/group-by worker count for every strategy under
	// test (0 = one per CPU, 1 = sequential). Answers are identical for
	// every worker count.
	Workers int
	// Metrics enables per-operator observability collection: instrumented
	// experiments attach one obs.RunReport per strategy run to the table
	// (flockbench -json sets this).
	Metrics bool
	// Timeout, when positive, bounds each strategy evaluation's wall
	// clock (flockbench -timeout): a run that exceeds it aborts with
	// eval.ErrCanceled instead of holding the suite hostage.
	Timeout time.Duration
}

// DefaultConfig is the reference configuration used for EXPERIMENTS.md.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 1998} }

// EvalOpts returns the evaluation options the configuration implies.
// Each call starts a fresh wall-clock budget, so the timeout bounds one
// strategy evaluation, not the whole suite.
func (c Config) EvalOpts() *core.EvalOptions {
	return &core.EvalOptions{Workers: c.Workers, Limits: eval.Limits{Wall: c.Timeout}}
}

// Instrument returns a fresh trace for one strategy run when metrics
// collection is enabled, nil otherwise. A nil *eval.Trace threads through
// every evaluator as a no-op, so callers need not branch.
func (c Config) Instrument() *eval.Trace {
	if !c.Metrics {
		return nil
	}
	return &eval.Trace{}
}

// TracedOpts is EvalOpts with the given trace attached.
func (c Config) TracedOpts(tr *eval.Trace) *core.EvalOptions {
	opts := c.EvalOpts()
	opts.Trace = tr
	return opts
}

func (c Config) scaled(n int) int {
	s := int(float64(n) * c.Scale)
	if s < 1 {
		return 1
	}
	return s
}

// AddPipeline runs one workload under the two executors — interned
// columnar streaming (the default) and the legacy materializing
// baseline — and records the peak intermediate buffering and allocation
// of each, plus the columnar run's dictionary statistics. The answers
// must be equal (the executor-oracle contract); a mismatch is returned
// as an error. A disabled-metrics configuration
// skips the comparison entirely.
func (t *Table) AddPipeline(cfg Config, name string,
	run func(exec eval.ExecMode, tr *eval.Trace) (*storage.Relation, error)) error {

	if !cfg.Metrics {
		return nil
	}
	measure := func(exec eval.ExecMode) (*storage.Relation, *obs.RunReport, int64, error) {
		tr := &eval.Trace{}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rel, err := run(exec, tr)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, nil, 0, err
		}
		return rel, tr.Report(name+" ["+exec.String()+"]", cfg.Workers, rel.Len()),
			int64(after.TotalAlloc - before.TotalAlloc), nil
	}
	// Untimed warm-up: the first columnar run pays the one-time lazy
	// dictionary build, which amortizes across a service's lifetime and
	// would otherwise bill the measured run's allocation.
	if _, err := run(eval.ExecStream, nil); err != nil {
		return fmt.Errorf("pipeline %s (warm-up): %w", name, err)
	}
	streamRel, streamRep, streamAlloc, err := measure(eval.ExecStream)
	if err != nil {
		return fmt.Errorf("pipeline %s (stream): %w", name, err)
	}
	matRel, matRep, matAlloc, err := measure(eval.ExecMaterialize)
	if err != nil {
		return fmt.Errorf("pipeline %s (materialize): %w", name, err)
	}
	if !streamRel.Equal(matRel) {
		return fmt.Errorf("pipeline %s: the two executors disagree", name)
	}
	t.Pipeline = append(t.Pipeline, PipelineMetric{
		Name:             name,
		PeakStream:       streamRep.PeakTuples,
		PeakMaterialize:  materializedPeak(matRep),
		AllocStream:      streamAlloc,
		AllocMaterialize: matAlloc,
		DictSize:         streamRep.DictSize,
		InternHits:       streamRep.InternHits,
		InternMisses:     streamRep.InternMisses,
	})
	return nil
}

// materializedPeak reads the materializing baseline's peak live
// intermediate tuples. The legacy operators feed the same gauge the
// streaming executor uses (see Executor.JoinNext, Finish, and the
// group-by call sites); the event-derived max(rows_in + rows_out) is a
// floor for traces from operators that predate the gauge.
func materializedPeak(r *obs.RunReport) int {
	peak := r.PeakTuples
	for _, s := range r.Steps {
		if n := s.RowsIn + s.RowsOut; n > peak {
			peak = n
		}
	}
	return peak
}

// timed measures one evaluation and returns its duration. A garbage
// collection runs first so one strategy's allocation debris does not bill
// the next strategy's clock.
func timed(f func() error) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// speedup formats a ratio between two durations.
func speedup(base, other time.Duration) string {
	if other <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(base)/float64(other))
}
