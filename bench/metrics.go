package main

// metricDef names one metric; BENCHMARK.json carries the same list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Bound is the share of the baseline's median by which the
// metric may worsen before a change counts as a regression.
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.15},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's figures. Every workload reports every
// one; a layer a workload does not enter reports 0.
var perLayer = []metricDef{
	{Name: "datalog.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.lint_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.canon_ms", Unit: "ms", Better: "lower"},
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "planner.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.join_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.symjoin_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.antijoin_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.group_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.materialize_ms", Unit: "ms", Better: "lower"},
	{Name: "physical.peak_tuples", Unit: "count", Better: "lower"},
	{Name: "physical.boxed_batch_share", Unit: "ratio", Better: "lower"},
	{Name: "storage.intern_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "storage.sorted_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.load_s", Unit: "s", Better: "lower"},
	{Name: "storage.ingest_s", Unit: "s", Better: "lower"},
	{Name: "storage.open_s", Unit: "s", Better: "lower"},
	{Name: "storage.bytes_read_per_op", Unit: "bytes", Better: "lower"},
	{Name: "storage.index_blocks_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.segments_opened_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.delta_rows_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.mutate_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "storage.space_amp", Unit: "ratio", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.plan_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.memo_occupancy", Unit: "ratio", Better: "lower"},
	{Name: "cluster.scattered_per_op", Unit: "count", Better: "higher"},
	{Name: "cluster.fallbacks_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.merged_groups_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.shard_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ttfb_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "error_rate", Unit: "fraction", Better: "lower"},
	{Name: "acked_writes_lost", Unit: "count", Better: "lower"},
	{Name: "trace.throughput_ops_s", Unit: "ops/s", Better: "higher"},
	{Name: "trace.attributed_share", Unit: "ratio", Better: "higher"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run of one workload prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// toResult turns a measured phase into the run's result: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func toResult(ph *phase, traced, smoke bool) (result, error) {
	res := result{Correct: ph.Failed == 0, Attempted: ph.Attempted, Failed: ph.Failed, Metrics: map[string]metricValue{}}
	ok := float64(ph.Attempted - ph.Failed)
	all := pooled(ph.Reads)
	if !traced {
		values := map[string]float64{
			"throughput_ops_s": ok / ph.WallS,
			"latency_p50_ms":   typicalLatency(ph.Reads),
			"setup_s":          ph.SetupS,
			"peak_rss_mb":      ph.PeakRSSMiB,
		}
		// A smoke run is too short for a p95 and leaves it out.
		if p95, err := percentile(all, 95); err == nil {
			values["latency_p95_ms"] = p95
		} else if !smoke {
			return res, err
		}
		for _, m := range endToEnd {
			if v, ok := values[m.Name]; ok {
				res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
		}
		return res, nil
	}
	layers := ph.Layers
	layers["trace.throughput_ops_s"] = ok / ph.WallS
	layers["write_p50_ms"] = median(ph.Writes)
	layers["error_rate"] = float64(ph.Failed) / float64(ph.Attempted)
	// p99 is a diagnostic for the one workload with samples to spare.
	if p99, err := percentile(all, 99); err == nil {
		layers["latency_p99_ms"] = p99
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{Value: layers[m.Name], Unit: m.Unit}
	}
	return res, nil
}
