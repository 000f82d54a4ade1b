package eval

import (
	"sync"

	"queryflocks/internal/obs"
)

// Trace accumulates the intermediate-result observations of an evaluation.
// It is a thin adapter over an obs.Collector: the engine records typed
// obs.Events (operator kind, rows in/out, workers, wall time), read back
// through Events or aggregated by Report. Recording is safe from
// concurrent goroutines.
type Trace struct {
	mu sync.Mutex
	c  *obs.Collector
}

// Collector returns the trace's underlying event collector, creating it on
// first use. Nil-safe: a nil *Trace yields a nil *Collector, whose Record
// is a no-op, so callers may thread `trace.Collector()` unconditionally.
func (t *Trace) Collector() *obs.Collector {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.c == nil {
		t.c = obs.NewCollector()
	}
	return t.c
}

// Events returns the typed events recorded so far.
func (t *Trace) Events() []obs.Event { return t.Collector().Events() }

// Report aggregates the trace into a machine-readable RunReport; see
// obs.Collector.Report.
func (t *Trace) Report(strategy string, workers, answerRows int) *obs.RunReport {
	return t.Collector().Report(strategy, workers, answerRows)
}
