// Command benchcheck validates flockbench -json output read from stdin:
// the table array must parse, and every embedded op_report must satisfy
// the metrics schema invariants (a strategy name, positive wall time, a
// non-empty step list, max_rows <= total_rows, non-negative
// cardinalities, — when the report carries flockd's "caches" block —
// bounded cache gauges, and — when it carries timed §4.4 decisions or
// replays a memoized extended answer — a decision no longer than its
// barrier and operator times that add up to the run). It is the CI smoke check that keeps the
// observability layer's JSON contract honest.
//
// Usage:
//
//	flockbench -exp E3 -json | benchcheck [-require-ops join,group] [-min-reports 1]
//
// -require-ops lists operator kinds that must appear somewhere across the
// reports; -min-reports is the minimum number of op_reports expected in
// total; -require-storage demands at least one report with storage-engine
// I/O (segments_opened > 0), the gate the CI disk-engine step uses.
// Reports carrying storage counters are checked for internal consistency
// (delta rows imply opened column files, opened column files imply bytes
// read). Embedded "pipeline" entries (the streaming run's footprint) are
// validated too, and -pipeline-baseline FILE additionally fails the check
// when any (experiment, workload) pair allocates more than 1.1x its
// committed alloc_stream_bytes — the CI columnar-regression gate.
// Violations print to stderr and exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"queryflocks/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

// table is the slice of the flockbench JSON schema benchcheck inspects.
type table struct {
	ID        string           `json:"id"`
	Title     string           `json:"title"`
	OpReports []*obs.RunReport `json:"op_reports"`
	Pipeline  []pipelineMetric `json:"pipeline"`
}

// pipelineMetric mirrors experiments.PipelineMetric: the streaming run's
// footprint and dictionary statistics.
type pipelineMetric struct {
	Name         string `json:"name"`
	PeakStream   int    `json:"peak_stream_tuples"`
	AllocStream  int64  `json:"alloc_stream_bytes"`
	DictSize     int    `json:"dict_size"`
	InternHits   uint64 `json:"intern_hits"`
	InternMisses uint64 `json:"intern_misses"`
}

// baselineFile is the BENCH_pipeline.json schema -pipeline-baseline reads.
type baselineFile struct {
	Experiments []struct {
		ID       string           `json:"id"`
		Pipeline []pipelineMetric `json:"pipeline"`
	} `json:"experiments"`
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchcheck", flag.ContinueOnError)
	requireOps := fs.String("require-ops", "", "comma-separated operator kinds that must appear (e.g. join,group,step)")
	minReports := fs.Int("min-reports", 1, "minimum total op_reports across all tables")
	requireStorage := fs.Bool("require-storage", false, "require at least one report with storage-engine I/O (segments_opened > 0), and no boxed_batches in any such report")
	baseline := fs.String("pipeline-baseline", "", "BENCH_pipeline.json-schema file; fail if any matching (id,name) allocates more than 1.1x its baseline alloc_stream_bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tables []table
	if err := json.NewDecoder(in).Decode(&tables); err != nil {
		return fmt.Errorf("invalid flockbench JSON: %w", err)
	}
	if len(tables) == 0 {
		return fmt.Errorf("no tables in input")
	}

	seenOps := map[obs.Op]bool{}
	reports, pipelines, storageReports := 0, 0, 0
	for _, t := range tables {
		if t.ID == "" {
			return fmt.Errorf("table with empty id")
		}
		for i, r := range t.OpReports {
			reports++
			if err := checkReport(r); err != nil {
				return fmt.Errorf("%s op_reports[%d]: %w", t.ID, i, err)
			}
			if r.SegmentsOpened > 0 {
				storageReports++
			}
			for _, s := range r.Steps {
				seenOps[s.Op] = true
				// Every engine runs the ID-column executor; a boxed batch
				// over a data directory means a row path crept back in.
				if *requireStorage && r.SegmentsOpened > 0 && s.BoxedBatches > 0 {
					return fmt.Errorf("%s op_reports[%d]: %s#%d reports %d boxed_batches over a data directory, want 0",
						t.ID, i, s.Op, s.ID, s.BoxedBatches)
				}
			}
		}
		for i, p := range t.Pipeline {
			pipelines++
			if err := checkPipeline(p); err != nil {
				return fmt.Errorf("%s pipeline[%d]: %w", t.ID, i, err)
			}
		}
	}
	if *baseline != "" {
		if err := checkBaseline(*baseline, tables); err != nil {
			return err
		}
	}
	if reports < *minReports {
		return fmt.Errorf("%d op_reports, want at least %d (run an instrumented experiment with -json)", reports, *minReports)
	}
	if *requireStorage && storageReports == 0 {
		return fmt.Errorf("no report carries storage-engine I/O (segments_opened > 0); check a flockd -engine disk report")
	}
	for _, op := range splitOps(*requireOps) {
		if !seenOps[op] {
			return fmt.Errorf("no %q events in any report (have %s)", op, opList(seenOps))
		}
	}

	fmt.Fprintf(out, "benchcheck: %d table(s), %d op_report(s), %d pipeline metric(s), ops %s\n",
		len(tables), reports, pipelines, opList(seenOps))
	return nil
}

// checkPipeline enforces the pipeline-metric invariants: a workload
// name, non-negative gauges, and a populated dictionary — the columnar
// executor always holds at least the null sentinel, so dict_size == 0
// means the run silently fell back to boxed values.
func checkPipeline(p pipelineMetric) error {
	if p.Name == "" {
		return fmt.Errorf("missing workload name")
	}
	for field, v := range map[string]int64{
		"peak_stream_tuples": int64(p.PeakStream),
		"alloc_stream_bytes": p.AllocStream,
	} {
		if v < 0 {
			return fmt.Errorf("%s: negative %s", p.Name, field)
		}
	}
	if p.DictSize < 1 {
		return fmt.Errorf("%s: dict_size %d, want >= 1 (columnar run never touched the dictionary)", p.Name, p.DictSize)
	}
	return nil
}

// checkBaseline compares each pipeline metric against the committed
// baseline file by (experiment id, workload name): the columnar
// executor's allocation may not regress by more than 10%. Entries
// missing from the baseline (new workloads) pass.
func checkBaseline(path string, tables []table) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading pipeline baseline: %w", err)
	}
	var bf baselineFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("invalid pipeline baseline %s: %w", path, err)
	}
	ref := map[string]int64{}
	for _, e := range bf.Experiments {
		for _, p := range e.Pipeline {
			ref[e.ID+"/"+p.Name] = p.AllocStream
		}
	}
	if len(ref) == 0 {
		return fmt.Errorf("pipeline baseline %s has no entries", path)
	}
	matched := 0
	for _, t := range tables {
		for _, p := range t.Pipeline {
			want, ok := ref[t.ID+"/"+p.Name]
			if !ok {
				continue
			}
			matched++
			if limit := want + want/10; p.AllocStream > limit {
				return fmt.Errorf("%s %q: alloc_stream_bytes %d exceeds 1.1x baseline %d",
					t.ID, p.Name, p.AllocStream, want)
			}
		}
	}
	if matched == 0 {
		return fmt.Errorf("no pipeline metric matches any baseline entry (ids/names drifted?)")
	}
	return nil
}

// knownOps is the closed set of operator kinds the metrics schema
// admits: the physical operators (internal/physical.Kind values double
// as obs.Op strings) plus the strategy-level step, decision, view, and
// note events. A kind outside this set means a producer and the schema
// have drifted, which must fail CI rather than pass silently.
var knownOps = map[obs.Op]bool{
	obs.OpScan:        true,
	obs.OpBuild:       true,
	obs.OpJoin:        true,
	obs.OpAntiJoin:    true,
	obs.OpSelect:      true,
	obs.OpProject:     true,
	obs.OpUnion:       true,
	obs.OpGroup:       true,
	obs.OpMaterialize: true,
	obs.OpSymJoin:     true,
	obs.OpStep:        true,
	obs.OpDecision:    true,
	obs.OpView:        true,
	obs.OpNote:        true,
	obs.OpShard:       true,
}

// checkReport enforces the per-report invariants of the metrics schema.
func checkReport(r *obs.RunReport) error {
	if r == nil {
		return fmt.Errorf("null report")
	}
	if r.Strategy == "" {
		return fmt.Errorf("missing strategy")
	}
	if r.WallNs <= 0 {
		return fmt.Errorf("%s: wall_ns %d, want > 0", r.Strategy, r.WallNs)
	}
	if len(r.Steps) == 0 {
		return fmt.Errorf("%s: empty step list", r.Strategy)
	}
	if r.MaxRows > r.TotalRows {
		return fmt.Errorf("%s: max_rows %d > total_rows %d", r.Strategy, r.MaxRows, r.TotalRows)
	}
	if r.AnswerRows < 0 {
		return fmt.Errorf("%s: negative answer_rows", r.Strategy)
	}
	if r.PeakTuples < 0 {
		return fmt.Errorf("%s: negative peak_tuples", r.Strategy)
	}
	maxRows, totalRows := 0, 0
	for i, s := range r.Steps {
		if s.Op == "" {
			return fmt.Errorf("%s steps[%d]: missing op", r.Strategy, i)
		}
		if !knownOps[s.Op] {
			return fmt.Errorf("%s steps[%d]: unknown operator kind %q", r.Strategy, i, s.Op)
		}
		if s.ID < 0 {
			return fmt.Errorf("%s steps[%d]: negative plan-node id %d", r.Strategy, i, s.ID)
		}
		if s.RowsOut < 0 || s.RowsIn < 0 {
			return fmt.Errorf("%s steps[%d]: negative cardinality", r.Strategy, i)
		}
		totalRows += s.RowsOut
		if s.RowsOut > maxRows {
			maxRows = s.RowsOut
		}
	}
	if maxRows != r.MaxRows || totalRows != r.TotalRows {
		return fmt.Errorf("%s: aggregates (max %d, total %d) disagree with steps (max %d, total %d)",
			r.Strategy, r.MaxRows, r.TotalRows, maxRows, totalRows)
	}
	if r.Caches != nil {
		if err := checkCaches(r.Caches); err != nil {
			return fmt.Errorf("%s caches: %w", r.Strategy, err)
		}
	}
	if r.Cluster != nil {
		if err := checkCluster(r.Cluster); err != nil {
			return fmt.Errorf("%s cluster: %w", r.Strategy, err)
		}
	}
	if err := checkAttribution(r); err != nil {
		return fmt.Errorf("%s: %w", r.Strategy, err)
	}
	return checkStorage(r)
}

// operatorOps are the physical operators: between them their wall times
// account for an evaluation (the strategy-level events — step, decision,
// view, shard — time spans that contain operators).
var operatorOps = map[obs.Op]bool{
	obs.OpScan: true, obs.OpBuild: true, obs.OpJoin: true, obs.OpSymJoin: true,
	obs.OpAntiJoin: true, obs.OpSelect: true, obs.OpProject: true, obs.OpUnion: true,
	obs.OpGroup: true, obs.OpMaterialize: true,
}

// checkAttribution enforces the attribution invariants of the reports
// whose operators must account for the whole run. A dynamic run's §4.4
// decisions are put by barrier operators (they carry a wall time and the
// barrier's node id): a decision happens inside its barrier, so it cannot
// outlast the barrier's materialize event. A memoized evaluation that
// replayed a memoized extended answer (a cached scan event) runs one
// operator plan like any other. In both, the operator walls must cover
// the run — under 90% means time is again spent where no operator
// reports it.
func checkAttribution(r *obs.RunReport) error {
	barrierWall := map[int]int64{}
	var operators int64
	replayed := false
	for _, s := range r.Steps {
		if operatorOps[s.Op] {
			operators += s.Wall.Nanoseconds()
		}
		if s.Op == obs.OpMaterialize {
			barrierWall[s.ID] = s.Wall.Nanoseconds()
		}
		if s.Op == obs.OpScan && s.Cached {
			replayed = true
		}
	}
	timed := false
	for _, s := range r.Steps {
		if s.Op != obs.OpDecision || s.Wall <= 0 {
			continue
		}
		timed = true
		wall, ok := barrierWall[s.ID]
		if !ok {
			return fmt.Errorf("decision %q names node %d, which has no materialize event", s.Desc, s.ID)
		}
		if s.Wall.Nanoseconds() > wall {
			return fmt.Errorf("decision %q took %dns, longer than its barrier materialize#%d (%dns)", s.Desc, s.Wall.Nanoseconds(), s.ID, wall)
		}
	}
	if (timed || replayed) && operators*10 < r.WallNs*9 {
		return fmt.Errorf("operator wall times sum to %dns of a %dns run, want at least 90%%", operators, r.WallNs)
	}
	return nil
}

// checkCluster enforces the coordinator's merged-report invariants: the
// shard layout is well-formed, every computation either scattered or
// fell back, bytes cross the wire exactly when something was scattered,
// and a degraded (partial) merge names the shards it lost —
// but never all of them, since an all-dead scatter must fail the query
// instead of answering.
func checkCluster(c *obs.ClusterStats) error {
	if c.Shards <= 0 {
		return fmt.Errorf("shards %d, want > 0", c.Shards)
	}
	if c.ShardRel == "" {
		return fmt.Errorf("missing shard_rel")
	}
	if c.ShardCol < 0 {
		return fmt.Errorf("negative shard_col %d", c.ShardCol)
	}
	if c.Scattered < 0 || c.Fallbacks < 0 || c.MergedGroups < 0 {
		return fmt.Errorf("negative counter: %+v", c)
	}
	if c.MergedGroups > 0 && c.Scattered == 0 {
		return fmt.Errorf("merged_groups %d with scattered 0", c.MergedGroups)
	}
	if (c.PartialBytes > 0) != (c.Scattered > 0) {
		return fmt.Errorf("partial_bytes %d with scattered %d: every scatter is answered in bytes, and nothing else is", c.PartialBytes, c.Scattered)
	}
	if c.Partial != (len(c.Failed) > 0) {
		return fmt.Errorf("partial=%v disagrees with failed_shards %v", c.Partial, c.Failed)
	}
	if len(c.Failed) >= c.Shards && c.Shards > 0 && c.Partial {
		return fmt.Errorf("all %d shards failed but the report claims a (partial) answer", c.Shards)
	}
	return nil
}

// checkStorage enforces the storage-engine counter invariants: reading
// a delta row means a column file was opened, and an opened column file
// always reads at least its header bytes. A violation means the I/O
// accounting in storage.IOStats and the report plumbing have drifted.
func checkStorage(r *obs.RunReport) error {
	if r.DeltaRows > 0 && r.SegmentsOpened == 0 {
		return fmt.Errorf("%s: delta_rows %d with segments_opened 0", r.Strategy, r.DeltaRows)
	}
	if r.SegmentsOpened > 0 && r.StorageBytesRead == 0 {
		return fmt.Errorf("%s: segments_opened %d with storage_bytes_read 0", r.Strategy, r.SegmentsOpened)
	}
	return nil
}

// checkCaches enforces the serving-layer counter invariants on reports
// that carry the flockd cache block: gauges stay within their configured
// bounds, and a bounded cache that reports hits must also report the
// entries (or evictions) those hits came from.
func checkCaches(c *obs.CacheStats) error {
	if c.PlanEntries < 0 || c.MemoEntries < 0 || c.MemoBytes < 0 || c.PreparedFlocks < 0 {
		return fmt.Errorf("negative gauge: %+v", c)
	}
	if c.PlanCapacity > 0 && c.PlanEntries > c.PlanCapacity {
		return fmt.Errorf("plan_entries %d over plan_capacity %d", c.PlanEntries, c.PlanCapacity)
	}
	if c.MemoMaxBytes > 0 && c.MemoBytes > c.MemoMaxBytes {
		return fmt.Errorf("memo_bytes %d over memo_max_bytes %d", c.MemoBytes, c.MemoMaxBytes)
	}
	if c.PlanHits > 0 && c.PlanEntries == 0 && c.PlanEvictions == 0 {
		return fmt.Errorf("plan_hits %d with no entries or evictions", c.PlanHits)
	}
	if (c.MemoExtHits > 0 || c.MemoSurvHits > 0) && c.MemoEntries == 0 && c.MemoEvictions == 0 {
		return fmt.Errorf("memo hits with no entries or evictions: %+v", c)
	}
	return nil
}

func splitOps(s string) []obs.Op {
	var out []obs.Op
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, obs.Op(part))
		}
	}
	return out
}

func opList(seen map[obs.Op]bool) string {
	var names []string
	for op := range seen {
		names = append(names, string(op))
	}
	if len(names) == 0 {
		return "none"
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
