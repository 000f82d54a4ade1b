// Package obs is the execution observability layer: typed per-operator
// events collected during flock evaluation, aggregated into a
// machine-readable RunReport that the CLIs render as an EXPLAIN ANALYZE
// tree or emit as JSON (flockql -metrics, flockbench -json).
//
// The paper's dynamic strategy (§4.4) is defined entirely in terms of
// observed intermediate-result sizes, and its empirical claims are
// measurements; this package makes those observations first-class instead
// of ad-hoc strings. Collection is strictly opt-in: every producer guards
// on a nil *Collector, so a run without one pays nothing.
package obs

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Op identifies the operator an Event describes. The values are the
// machine-readable "op" strings of the metrics JSON schema.
type Op string

// The operator kinds emitted by the engine.
const (
	// OpScan is a streaming base-relation scan — the source of a
	// physical pipeline.
	OpScan Op = "scan"
	// OpBuild is the hash-index build on a join's base relation.
	OpBuild Op = "build"
	// OpJoin is one hash-join of a positive atom into the bindings.
	OpJoin Op = "join"
	// OpAntiJoin removes bindings matching a negated atom.
	OpAntiJoin Op = "antijoin"
	// OpSelect applies a fully bound arithmetic comparison.
	OpSelect Op = "select"
	// OpGroup is a group-by-parameters + filter evaluation (one FILTER
	// computation, §4.1).
	OpGroup Op = "group"
	// OpProject is a projection onto output columns (optionally
	// deduplicating).
	OpProject Op = "project"
	// OpUnion concatenates the branch pipelines of a union query.
	OpUnion Op = "union"
	// OpMaterialize collects a stream into a relation: the plan sink, a
	// FILTER-step result, or a dynamic decision barrier.
	OpMaterialize Op = "materialize"
	// OpSymJoin named the symmetric hash join of the removed fused plan
	// executor. No operator emits it any more; the name stays in the
	// closed set so reports and benchmark readers that list it still
	// validate.
	OpSymJoin Op = "symjoin"
	// OpStep is one completed FILTER step of a query plan (§4.2).
	OpStep Op = "step"
	// OpDecision is one §4.4 dynamic filter/don't-filter decision.
	OpDecision Op = "decision"
	// OpView is one materialized view.
	OpView Op = "view"
	// OpNote is an untyped annotation (the legacy Trace.Add surface).
	OpNote Op = "note"
	// OpShard is one worker shard's contribution to a scattered FILTER
	// computation: RowsOut is the number of partial group states the shard
	// returned, Wall the shard's round-trip time.
	OpShard Op = "shard"
)

// Event is one recorded operator application. Desc carries only the
// operand (the atom, comparison, or step name); renderers add the
// op-specific prefix.
type Event struct {
	Op   Op     `json:"op"`
	Desc string `json:"desc"`
	// ID is the emitting physical-plan node's preorder ID (1-based);
	// zero for events not produced by a compiled plan.
	ID int `json:"id,omitempty"`
	// RowsIn is the input (binding-relation) cardinality, when meaningful.
	RowsIn int `json:"rows_in,omitempty"`
	// RowsOut is the observed output cardinality.
	RowsOut int `json:"rows_out"`
	// Groups is the number of distinct parameter groups seen (group/
	// decision events).
	Groups int `json:"groups,omitempty"`
	// Absorbed counts pending subgoals folded into this operator's scan.
	Absorbed int `json:"absorbed,omitempty"`
	// Workers is the worker count the operator actually ran with.
	Workers int `json:"workers,omitempty"`
	// Wall is the operator's wall-clock time in nanoseconds.
	Wall time.Duration `json:"wall_ns,omitempty"`
	// Filtered reports, for decision events, that the FILTER fired.
	Filtered bool `json:"filtered,omitempty"`
	// IDBatches counts batches the operator processed in columnar
	// interned-ID form; BoxedBatches counts row-at-a-time batches of
	// boxed Values. Together they show how much of a run stayed on the
	// integer hot path.
	IDBatches    int `json:"id_batches,omitempty"`
	BoxedBatches int `json:"boxed_batches,omitempty"`
	// Cached reports that the operator's input (or its entire result) was
	// served from the cross-request candidate-subquery memo instead of
	// being recomputed.
	Cached bool `json:"cached,omitempty"`
	// Bytes is, on a shard event, the size of the shard's /partial
	// response body.
	Bytes int `json:"bytes,omitempty"`
}

// String renders the event one-line, prefix included.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Label())
	fmt.Fprintf(&b, "  %s", e.cardinalities())
	return b.String()
}

// Label returns the operator rendering with its op-specific prefix but
// without the observed cardinalities (see String for the full line).
func (e Event) Label() string {
	switch e.Op {
	case OpScan:
		if e.Absorbed > 0 {
			return fmt.Sprintf("scan %s (+%d absorbed)", e.Desc, e.Absorbed)
		}
		return "scan " + e.Desc
	case OpBuild:
		return "build " + e.Desc
	case OpProject:
		return "project " + e.Desc
	case OpUnion:
		return "union " + e.Desc
	case OpMaterialize:
		return "materialize " + e.Desc
	case OpJoin:
		if e.Absorbed > 0 {
			return fmt.Sprintf("join %s (+%d absorbed)", e.Desc, e.Absorbed)
		}
		return "join " + e.Desc
	case OpAntiJoin:
		return "antijoin " + e.Desc
	case OpSelect:
		return "select " + e.Desc
	case OpGroup:
		return "filter " + e.Desc
	case OpStep:
		return "step " + e.Desc
	case OpDecision:
		verdict := "skip"
		if e.Filtered {
			verdict = "FILTER"
		}
		return fmt.Sprintf("decide %s: %s", e.Desc, verdict)
	case OpView:
		return "view " + e.Desc
	case OpShard:
		return "shard " + e.Desc
	default:
		return e.Desc
	}
}

// cardinalities renders the observed sizes and timing.
func (e Event) cardinalities() string {
	var parts []string
	if e.RowsIn > 0 || e.Op == OpJoin || e.Op == OpAntiJoin || e.Op == OpSelect {
		parts = append(parts, fmt.Sprintf("%d -> %d rows", e.RowsIn, e.RowsOut))
	} else {
		parts = append(parts, fmt.Sprintf("%d rows", e.RowsOut))
	}
	if e.Groups > 0 {
		parts = append(parts, fmt.Sprintf("%d groups", e.Groups))
	}
	if e.Workers > 1 {
		parts = append(parts, fmt.Sprintf("w=%d", e.Workers))
	}
	if e.Cached {
		parts = append(parts, "memo")
	}
	if e.Bytes > 0 {
		parts = append(parts, fmt.Sprintf("%d bytes", e.Bytes))
	}
	if e.Wall > 0 {
		parts = append(parts, e.Wall.Round(time.Microsecond).String())
	}
	return strings.Join(parts, "  ")
}

// Collector accumulates events. Recording is safe from concurrent
// goroutines (partitioned operator workers, scattered shard calls); event
// order across them is then nondeterministic. All methods are nil-safe so producers can hold a
// possibly-nil *Collector and call it unconditionally on cold paths; hot
// paths still guard with a nil check to skip argument construction.
type Collector struct {
	mu     sync.Mutex
	events []Event
	peak   int

	dictSize     int
	internHits   uint64
	internMisses uint64

	segmentsOpened  uint64
	indexBlocksRead uint64
	deltaRows       uint64
	storageBytes    uint64

	start       time.Time
	startAllocs uint64
	startBytes  uint64
}

// NewCollector returns a collector with the wall clock and allocation
// baseline started. The zero value also works; its report then omits wall
// time and allocation deltas.
func NewCollector() *Collector {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Collector{start: time.Now(), startAllocs: ms.Mallocs, startBytes: ms.TotalAlloc}
}

// Record appends one event. Nil-safe.
func (c *Collector) Record(e Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// ObservePeak records the high-water count of tuples buffered in
// pipeline-breaker state during a plan execution (max-merged across
// executions, e.g. one per FILTER step). Nil-safe.
func (c *Collector) ObservePeak(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if n > c.peak {
		c.peak = n
	}
	c.mu.Unlock()
}

// ObserveDict records the value-dictionary state after a columnar run:
// the dictionary size and the cumulative intern hit/miss counters (the
// hit rate shows how much interning amortizes across re-evaluations).
// Size and counters take the max across observations, matching the
// monotone counters they mirror. Nil-safe.
func (c *Collector) ObserveDict(size int, hits, misses uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if size > c.dictSize {
		c.dictSize = size
	}
	if hits > c.internHits {
		c.internHits = hits
	}
	if misses > c.internMisses {
		c.internMisses = misses
	}
	c.mu.Unlock()
}

// ObserveStorage records the disk engine's cumulative I/O counters after
// a run: segments opened, sparse-index blocks consulted, delta-layer rows
// merged, and bytes read from segment files. Like ObserveDict, the
// counters are monotone process-wide, so observations max-merge. Nil-safe
// (and a no-op for in-memory runs, which pass all zeros).
func (c *Collector) ObserveStorage(segments, blocks, deltaRows, bytes uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if segments > c.segmentsOpened {
		c.segmentsOpened = segments
	}
	if blocks > c.indexBlocksRead {
		c.indexBlocksRead = blocks
	}
	if deltaRows > c.deltaRows {
		c.deltaRows = deltaRows
	}
	if bytes > c.storageBytes {
		c.storageBytes = bytes
	}
	c.mu.Unlock()
}

// Events returns a snapshot of the recorded events.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Len returns the number of recorded events.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Report aggregates the collected events into a RunReport. AnswerRows is
// the final answer cardinality; strategy and workers describe the run
// configuration. Nil-safe: a nil collector yields nil.
func (c *Collector) Report(strategy string, workers, answerRows int) *RunReport {
	if c == nil {
		return nil
	}
	r := &RunReport{
		Strategy:   strategy,
		Workers:    workers,
		AnswerRows: answerRows,
		Steps:      c.Events(),
	}
	c.mu.Lock()
	r.PeakTuples = c.peak
	r.DictSize = c.dictSize
	r.InternHits = c.internHits
	r.InternMisses = c.internMisses
	r.SegmentsOpened = c.segmentsOpened
	r.IndexBlocksRead = c.indexBlocksRead
	r.DeltaRows = c.deltaRows
	r.StorageBytesRead = c.storageBytes
	c.mu.Unlock()
	if !c.start.IsZero() {
		r.WallNs = time.Since(c.start).Nanoseconds()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.Allocs = ms.Mallocs - c.startAllocs
		r.AllocBytes = ms.TotalAlloc - c.startBytes
	}
	for _, e := range r.Steps {
		r.TotalRows += e.RowsOut
		if e.RowsOut > r.MaxRows {
			r.MaxRows = e.RowsOut
		}
	}
	return r
}

// RunReport is the machine-readable outcome of one instrumented
// evaluation: run-level aggregates plus the per-operator event list. It
// marshals directly to the metrics JSON schema documented in
// docs/LANGUAGE.md.
type RunReport struct {
	// Strategy names the evaluation strategy ("direct", "dynamic", ...).
	Strategy string `json:"strategy,omitempty"`
	// Workers is the configured worker knob (0 = one per CPU).
	Workers int `json:"workers,omitempty"`
	// AnswerRows is the answer cardinality.
	AnswerRows int `json:"answer_rows"`
	// WallNs is the run's wall-clock time in nanoseconds.
	WallNs int64 `json:"wall_ns,omitempty"`
	// Allocs and AllocBytes are the heap allocation deltas over the run
	// (process-wide; approximate under concurrency).
	Allocs     uint64 `json:"allocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// MaxRows is the largest intermediate size observed — the memory
	// high-water proxy of a join pipeline.
	MaxRows int `json:"max_rows"`
	// PeakTuples is the streaming executor's high-water count of tuples
	// buffered in pipeline-breaker state (group maps, barriers, the
	// sink); zero when the run did not execute a compiled physical plan.
	PeakTuples int `json:"peak_tuples,omitempty"`
	// TotalRows sums all intermediate sizes — the cost proxy the planner's
	// estimates are calibrated against.
	TotalRows int `json:"total_rows"`
	// DictSize is the value-dictionary cardinality after a columnar run
	// (distinct interned value classes, null included); zero when the run
	// never touched the dictionary.
	DictSize int `json:"dict_size,omitempty"`
	// InternHits and InternMisses are the dictionary's cumulative intern
	// counters: hits found the value already interned, misses appended a
	// fresh ID.
	InternHits   uint64 `json:"intern_hits,omitempty"`
	InternMisses uint64 `json:"intern_misses,omitempty"`
	// SegmentsOpened, IndexBlocksRead, DeltaRows, and StorageBytesRead are
	// the disk engine's cumulative I/O counters sampled after the run:
	// segment files opened, sparse-index blocks consulted to position
	// prefix/range reads, delta-layer rows merged over base segments, and
	// bytes read from segment files. All zero for in-memory runs.
	SegmentsOpened   uint64 `json:"segments_opened,omitempty"`
	IndexBlocksRead  uint64 `json:"index_blocks_read,omitempty"`
	DeltaRows        uint64 `json:"delta_rows,omitempty"`
	StorageBytesRead uint64 `json:"storage_bytes_read,omitempty"`
	// Caches is the serving layer's cache counter block, attached by
	// flockd to every evaluated response; nil for non-served runs.
	Caches *CacheStats `json:"caches,omitempty"`
	// Cluster is the coordinator's scatter/gather block, attached when the
	// request was served by a sharded flockd cluster; nil otherwise.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Steps is the per-operator event list, in execution order.
	Steps []Event `json:"steps"`
}

// ClusterStats describes how a sharded flockd cluster served one request:
// the topology, how many FILTER computations were scattered to the worker
// shards versus evaluated coordinator-locally (computations the shard map
// cannot legally partition fall back), and the degraded-answer flag when a
// shard failed and the client opted into partial results.
type ClusterStats struct {
	// Shards is the number of worker shards in the map.
	Shards int `json:"shards"`
	// ShardRel and ShardCol name the range-partitioned relation and the
	// column its contiguous value ranges split on.
	ShardRel string `json:"shard_rel"`
	ShardCol int    `json:"shard_col"`
	// Scattered counts FILTER computations pushed to the shards; Fallbacks
	// counts those evaluated locally because partitioning them would
	// change answers (the legality rules in internal/cluster).
	Scattered int `json:"scattered"`
	Fallbacks int `json:"fallbacks"`
	// MergedGroups is the total number of distinct parameter groups merged
	// across all scattered computations.
	MergedGroups int `json:"merged_groups,omitempty"`
	// PartialBytes is the total size of the /partial response bodies the
	// shards answered the scattered computations with.
	PartialBytes int `json:"partial_bytes,omitempty"`
	// Partial reports a degraded answer: at least one shard failed and the
	// request allowed serving without it. Failed names the dead shards.
	Partial bool     `json:"partial,omitempty"`
	Failed  []string `json:"failed_shards,omitempty"`
}

// CacheStats is the serving layer's cache counter block: the LRU plan
// cache, the byte-bounded candidate-subquery memo, and the prepared-flock
// registry, plus the database version the counters were sampled against.
// All hit/miss/eviction counters are cumulative since process start,
// mirroring the dictionary's intern_hits/intern_misses convention —
// per-request deltas are the difference between two samples.
type CacheStats struct {
	// PlanEntries/PlanCapacity describe the plan cache's occupancy; the
	// hit/miss/eviction counters its cumulative traffic.
	PlanEntries   int    `json:"plan_entries"`
	PlanCapacity  int    `json:"plan_capacity,omitempty"`
	PlanHits      uint64 `json:"plan_hits"`
	PlanMisses    uint64 `json:"plan_misses"`
	PlanEvictions uint64 `json:"plan_evictions,omitempty"`

	// MemoEntries/MemoBytes/MemoMaxBytes describe the candidate-subquery
	// memo's occupancy against its byte bound. Extended-answer lookups
	// (filter-free: shared across threshold variants) and survivor-set
	// lookups (query+filter) are counted separately — a threshold-
	// tightened re-run shows as an ext hit plus a surv miss.
	MemoEntries    int    `json:"memo_entries"`
	MemoBytes      int64  `json:"memo_bytes"`
	MemoMaxBytes   int64  `json:"memo_max_bytes,omitempty"`
	MemoExtHits    uint64 `json:"memo_ext_hits"`
	MemoExtMisses  uint64 `json:"memo_ext_misses"`
	MemoSurvHits   uint64 `json:"memo_surv_hits"`
	MemoSurvMisses uint64 `json:"memo_surv_misses"`
	MemoEvictions  uint64 `json:"memo_evictions,omitempty"`

	// PreparedFlocks is the prepared-flock registry size.
	PreparedFlocks int `json:"prepared_flocks"`
	// DBVersion is the served database's data-mutation counter; every
	// plan-cache and memo key embeds it, so a bump strands all prior
	// entries (invalidation without scanning).
	DBVersion uint64 `json:"db_version"`
}

// Tree renders the report as an execution tree: pipeline operators (join,
// antijoin, select) indent one level per stage — the shape of the
// left-deep join tree — and boundary operators (group, step, view, note)
// close the pipeline. Decisions print at the current pipeline depth.
func (r *RunReport) Tree() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d answers", headline(r.Strategy), r.AnswerRows)
	if r.WallNs > 0 {
		fmt.Fprintf(&b, " in %s", time.Duration(r.WallNs).Round(time.Microsecond))
	}
	if r.Workers != 1 {
		fmt.Fprintf(&b, " (workers=%s)", workersLabel(r.Workers))
	}
	if r.PeakTuples > 0 {
		fmt.Fprintf(&b, "  peak=%d tuples", r.PeakTuples)
	}
	if r.Allocs > 0 {
		fmt.Fprintf(&b, "  [%d allocs, %s]", r.Allocs, byteSize(r.AllocBytes))
	}
	if r.DictSize > 0 {
		fmt.Fprintf(&b, "  dict=%d", r.DictSize)
		if total := r.InternHits + r.InternMisses; total > 0 {
			fmt.Fprintf(&b, " (%.0f%% intern hits)", 100*float64(r.InternHits)/float64(total))
		}
	}
	if r.SegmentsOpened > 0 || r.StorageBytesRead > 0 {
		fmt.Fprintf(&b, "  io=%s/%d segs", byteSize(r.StorageBytesRead), r.SegmentsOpened)
		if r.IndexBlocksRead > 0 {
			fmt.Fprintf(&b, " (%d index blocks)", r.IndexBlocksRead)
		}
		if r.DeltaRows > 0 {
			fmt.Fprintf(&b, " (+%d delta rows)", r.DeltaRows)
		}
	}
	b.WriteByte('\n')
	depth := 0
	for _, e := range r.Steps {
		switch e.Op {
		case OpScan:
			// A scan starts a fresh pipeline (streaming events arrive in
			// leaf-to-root order).
			depth = 0
			writeTreeLine(&b, depth, e)
			depth++
		case OpBuild:
			writeTreeLine(&b, depth, e)
		case OpJoin, OpAntiJoin, OpSelect, OpProject:
			writeTreeLine(&b, depth, e)
			depth++
		case OpDecision:
			writeTreeLine(&b, depth, e)
		default: // group, union, materialize, step, view, note: boundary
			writeTreeLine(&b, depth, e)
			depth = 0
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

func headline(strategy string) string {
	if strategy == "" {
		return "run"
	}
	return strategy
}

func workersLabel(w int) string {
	if w == 0 {
		return "per-CPU"
	}
	return fmt.Sprintf("%d", w)
}

func writeTreeLine(b *strings.Builder, depth int, e Event) {
	if depth == 0 {
		fmt.Fprintf(b, "%s\n", e)
		return
	}
	b.WriteString(strings.Repeat("   ", depth-1))
	fmt.Fprintf(b, "└─ %s\n", e)
}

// byteSize renders a byte count with a binary unit.
func byteSize(n uint64) string {
	const kib, mib, gib = 1 << 10, 1 << 20, 1 << 30
	switch {
	case n >= gib:
		return fmt.Sprintf("%.1fGiB", float64(n)/gib)
	case n >= mib:
		return fmt.Sprintf("%.1fMiB", float64(n)/mib)
	case n >= kib:
		return fmt.Sprintf("%.1fKiB", float64(n)/kib)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
