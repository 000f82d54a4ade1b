// Package par holds the tiny worker-pool primitives the parallel execution
// layer is built from. Its one user is the streaming executor
// (internal/physical), whose join and anti-join operators partition each
// probe batch. Those operators are coarse-grained — one call processes
// up to a batch of ID rows — so the pool spawns fresh goroutines per
// operation rather than keeping long-lived workers; at the row counts
// where parallelism is engaged the spawn cost is noise. The materializing
// reference of the direct and plan paths (eval.ExecMaterialize) always
// runs sequentially.
//
// The Workers knob convention, shared by every layer that exposes one
// (physical.Ctx, eval.Options, core.EvalOptions, planner.DynamicOptions,
// the -workers command flags): 0 means one worker per available CPU
// (GOMAXPROCS), 1 forces the sequential code path, and any larger value
// is used as given.
package par

import (
	"runtime"
	"sync"
)

// Resolve normalizes a Workers knob: 0 (unset) becomes one worker per
// available CPU; values below 1 clamp to 1 (sequential).
func Resolve(n int) int {
	switch {
	case n == 0:
		return runtime.GOMAXPROCS(0)
	case n < 1:
		return 1
	default:
		return n
	}
}

// Chunks reports how many contiguous chunks Run will split n items into
// for the given worker count: min(workers, n), at least 1.
func Chunks(n, workers int) int {
	if workers < 1 {
		return 1
	}
	if n < workers {
		if n < 1 {
			return 1
		}
		return n
	}
	return workers
}

// Run partitions [0, n) into Chunks(n, workers) contiguous ranges and calls
// body(w, lo, hi) for each, concurrently when more than one chunk exists.
// w is the chunk index (dense, 0-based); ranges are balanced to within one
// item and cover [0, n) exactly, so per-chunk results merged in chunk order
// reproduce the sequential processing order. Run returns when every body
// call has returned. body must not touch shared mutable state.
func Run(n, workers int, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := Chunks(n, workers)
	if chunks == 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks)
	for w := 0; w < chunks; w++ {
		lo, hi := w*n/chunks, (w+1)*n/chunks
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
