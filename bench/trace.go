package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the bench
// around the call (the engine itself is not instrumented). Spans of one
// op share Op; Parent is the ID of the span that caused this one, 0 for
// the op's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	OpType  string `json:"op_type"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reset drops the spans recorded so far; IDs start over.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
}

// nextOp allots the identifier the spans of one op share.
func (t *tracer) nextOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its ID, for use as a parent and for end.
func (t *tracer) begin(op int, opType, layer string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	ns := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, OpType: opType, Layer: layer, StartNs: ns, EndNs: ns})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = end.Sub(t.t0).Nanoseconds()
}

// add records a finished span and returns its ID.
func (t *tracer) add(op int, opType, layer string, parent int, start, end time.Time) int {
	id := t.begin(op, opType, layer, parent, start)
	t.end(id, end)
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part of
// that interval its child spans cover. Overlapping children are counted
// once and the parts of a child outside its parent are ignored.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// layerSelf sums self time per layer for every op: op -> layer -> ns.
// The root span's own self time is filed under its layer like any other.
func layerSelf(spans []span) map[int]map[string]int64 {
	self := selfTimes(spans)
	out := make(map[int]map[string]int64)
	for _, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = make(map[string]int64)
			out[s.Op] = m
		}
		m[s.Layer] += self[s.ID]
	}
	return out
}
