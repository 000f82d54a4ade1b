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
	// Pipeline records the streaming executor's peak buffered tuples and
	// allocation per workload, when metrics collection is enabled.
	Pipeline []PipelineMetric `json:"pipeline,omitempty"`
}

// PipelineMetric is one workload's footprint under the streaming
// executor: its peak buffered-tuples gauge (retained operator state:
// group accumulators, dedup sets, sink inserts) and the total bytes the
// evaluation allocated.
type PipelineMetric struct {
	Name        string `json:"name"`
	PeakStream  int    `json:"peak_stream_tuples"`
	AllocStream int64  `json:"alloc_stream_bytes"`
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
	// Workers is core.EvalOptions.Workers for every strategy under test:
	// the in-process parts of each FILTER computation (0 = one per CPU,
	// 1 = sequential). Answers are the same set at every count.
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

// AddPipeline runs one workload under the streaming executor and records
// its peak intermediate buffering and allocation, plus the run's
// dictionary statistics. A disabled-metrics configuration skips it
// entirely.
func (t *Table) AddPipeline(cfg Config, name string, run func(tr *eval.Trace) (*storage.Relation, error)) error {
	if !cfg.Metrics {
		return nil
	}
	// Untimed warm-up: the first columnar run pays the one-time lazy
	// dictionary build, which amortizes across a service's lifetime and
	// would otherwise bill the measured run's allocation.
	if _, err := run(nil); err != nil {
		return fmt.Errorf("pipeline %s (warm-up): %w", name, err)
	}
	tr := &eval.Trace{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rel, err := run(tr)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("pipeline %s: %w", name, err)
	}
	rep := tr.Report(name+" [stream]", cfg.Workers, rel.Len())
	t.Pipeline = append(t.Pipeline, PipelineMetric{
		Name:         name,
		PeakStream:   rep.PeakTuples,
		AllocStream:  int64(after.TotalAlloc - before.TotalAlloc),
		DictSize:     rep.DictSize,
		InternHits:   rep.InternHits,
		InternMisses: rep.InternMisses,
	})
	return nil
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
