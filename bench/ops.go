package main

import (
	"time"

	"queryflocks/internal/obs"
)

// opResult is the outcome of one op of a closed loop.
type opResult struct {
	req     request
	latency time.Duration
	got     answer // fingerprint of the answer rows (reads)
	err     error  // transport error, non-200, or engine error
	detail  *opDetail
}

// opDetail is what the traced run learns about one op from the engine's
// own RunReport and from the client's httptrace hooks.
type opDetail struct {
	OpWallNs     map[string]int64 // operator kind -> summed wall_ns of its events
	PeakTuples   int
	IDBatches    int
	BoxedBatches int

	// Deltas of the engine's cumulative storage counters against the
	// previous op of the same client.
	BytesRead, IndexBlocks, Segments, DeltaRows uint64
	InternHits, InternMisses                    uint64

	Scattered, Fallbacks, MergedGroups int
	ShardWaitNs                        int64 // per scattered computation the slowest shard, summed

	ExecNs    int64 // flockd's own wall_ns for the evaluation
	TTFBNs    int64
	RespBytes int
}

// cumulative is the last sample of the engine's process-wide monotone
// counters; a per-op figure is the difference between two samples.
type cumulative struct {
	bytes, blocks, segments, delta, hits, misses uint64
}

// splitOps are the operator kinds physical.exec_ms is split into.
var splitOps = []obs.Op{obs.OpJoin, obs.OpSymJoin, obs.OpAntiJoin, obs.OpGroup, obs.OpScan, obs.OpMaterialize}

// fromReport fills the report-derived fields and advances prev.
func (d *opDetail) fromReport(r *obs.RunReport, prev *cumulative) {
	d.OpWallNs = make(map[string]int64)
	d.PeakTuples = r.PeakTuples
	var slowest int64
	for _, e := range r.Steps {
		d.OpWallNs[string(e.Op)] += e.Wall.Nanoseconds()
		d.IDBatches += e.IDBatches
		d.BoxedBatches += e.BoxedBatches
		// The shard events of one scattered computation are consecutive;
		// the slower shard sets that computation's wait.
		if e.Op == obs.OpShard {
			slowest = max(slowest, e.Wall.Nanoseconds())
		} else {
			d.ShardWaitNs += slowest
			slowest = 0
		}
	}
	d.ShardWaitNs += slowest

	now := cumulative{
		bytes: r.StorageBytesRead, blocks: r.IndexBlocksRead, segments: r.SegmentsOpened,
		delta: r.DeltaRows, hits: r.InternHits, misses: r.InternMisses,
	}
	sub := func(a, b uint64) uint64 {
		if a < b { // a report that never touched the layer carries zeros
			return 0
		}
		return a - b
	}
	d.BytesRead, d.IndexBlocks = sub(now.bytes, prev.bytes), sub(now.blocks, prev.blocks)
	d.Segments, d.DeltaRows = sub(now.segments, prev.segments), sub(now.delta, prev.delta)
	d.InternHits, d.InternMisses = sub(now.hits, prev.hits), sub(now.misses, prev.misses)
	prev.bytes, prev.blocks = max(prev.bytes, now.bytes), max(prev.blocks, now.blocks)
	prev.segments, prev.delta = max(prev.segments, now.segments), max(prev.delta, now.delta)
	prev.hits, prev.misses = max(prev.hits, now.hits), max(prev.misses, now.misses)

	if c := r.Cluster; c != nil {
		d.Scattered, d.Fallbacks, d.MergedGroups = c.Scattered, c.Fallbacks, c.MergedGroups
	}
}
