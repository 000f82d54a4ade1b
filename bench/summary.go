package main

// summarize folds a traced phase's spans and report details into the
// per-layer figures (written into layers) and the per-op-type view.
//
// A layer's time is its spans' self time: "<layer>_ms" is the mean per
// span of that layer, i.e. per call. Counts taken from the engine's
// RunReport are means per op, ratios are taken over the whole phase.
func summarize(results []opResult, spans []span, layers map[string]float64) map[string]opSummary {
	self := layerSelf(spans)
	opType := make(map[int]string)
	opWall := make(map[int]int64)
	for _, s := range spans {
		if s.Parent == 0 {
			opType[s.Op] = s.OpType
			opWall[s.Op] = s.EndNs - s.StartNs
		}
	}

	// Per layer: total self time and number of ops that entered it.
	total, calls := map[string]int64{}, map[string]int{}
	type acc struct {
		wall   int64
		layers map[string][]float64
		sum    map[string]int64
	}
	byType := map[string]*acc{}
	var attributed, wallAll int64
	for op, m := range self {
		a := byType[opType[op]]
		if a == nil {
			a = &acc{layers: map[string][]float64{}, sum: map[string]int64{}}
			byType[opType[op]] = a
		}
		a.wall += opWall[op]
		wallAll += opWall[op]
		for layer, ns := range m {
			total[layer] += ns
			calls[layer]++
			a.layers[layer] = append(a.layers[layer], float64(ns)/1e6)
			a.sum[layer] += ns
			if layer != "bench.op" {
				attributed += ns
			}
		}
	}
	for layer, ns := range total {
		if layer != "bench.op" {
			layers[layer+"_ms"] = float64(ns) / 1e6 / float64(calls[layer])
		}
	}
	if wallAll > 0 {
		// The share of op wall time that lands in a named layer rather
		// than in the op's own span: the trace accounts for an op only as
		// far as this is close to 1.
		layers["trace.attributed_share"] = float64(attributed) / float64(wallAll)
	}

	// Engine-report figures.
	counters := map[string]map[string]float64{} // op type -> counter -> sum
	var n, idBatches, boxedBatches, hits, misses float64
	sum := map[string]float64{}
	peak := 0
	for _, r := range results {
		d := r.detail
		if d == nil {
			continue
		}
		n++
		c := counters[r.req.OpType]
		if c == nil {
			c = map[string]float64{}
			counters[r.req.OpType] = c
		}
		c["ops"]++
		for _, kv := range [...]struct {
			name string
			v    float64
		}{
			{"storage.bytes_read_per_op", float64(d.BytesRead)},
			{"storage.index_blocks_per_op", float64(d.IndexBlocks)},
			{"storage.segments_opened_per_op", float64(d.Segments)},
			{"storage.delta_rows_per_op", float64(d.DeltaRows)},
			{"cluster.scattered_per_op", float64(d.Scattered)},
			{"cluster.fallbacks_per_op", float64(d.Fallbacks)},
			{"cluster.merged_groups_per_op", float64(d.MergedGroups)},
			{"serve.response_bytes", float64(d.RespBytes)},
			{"client.ttfb_ms", float64(d.TTFBNs) / 1e6},
		} {
			sum[kv.name] += kv.v
			c[kv.name] += kv.v
		}
		for _, op := range splitOps {
			sum["physical."+string(op)+"_ms"] += float64(d.OpWallNs[string(op)]) / 1e6
		}
		idBatches += float64(d.IDBatches)
		boxedBatches += float64(d.BoxedBatches)
		hits += float64(d.InternHits)
		misses += float64(d.InternMisses)
		peak = max(peak, d.PeakTuples)
	}
	if n > 0 {
		for name, v := range sum {
			layers[name] = v / n
		}
		layers["physical.peak_tuples"] = float64(peak)
		if idBatches+boxedBatches > 0 {
			layers["physical.boxed_batch_share"] = boxedBatches / (idBatches + boxedBatches)
		}
		if hits+misses > 0 {
			layers["storage.intern_miss_ratio"] = misses / (hits + misses)
		}
	}

	out := make(map[string]opSummary, len(byType))
	reads, writes := latencies(results)
	for name, a := range byType {
		s := opSummary{Layers: map[string]layerTime{}, Counters: map[string]float64{}}
		lat := reads[name]
		if lat == nil {
			lat = writes
		}
		s.Ops, s.LatencyP50Ms = len(lat), median(lat)
		for layer, xs := range a.layers {
			s.Layers[layer] = layerTime{SelfP50Ms: median(xs), Share: float64(a.sum[layer]) / float64(a.wall)}
		}
		if c := counters[name]; c != nil {
			for counter, v := range c {
				if counter != "ops" {
					s.Counters[counter] = v / c["ops"]
				}
			}
		}
		out[name] = s
	}
	return out
}
