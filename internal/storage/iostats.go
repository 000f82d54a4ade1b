package storage

import "sync/atomic"

// IOStats counts the disk engine's I/O activity for one opened data
// directory. The counters are cumulative and monotone (like the
// dictionary's intern counters); the observability layer max-merges
// samples into RunReport. All fields are safe for concurrent use, and a
// nil *IOStats is a no-op sink so the in-memory engine pays nothing.
type IOStats struct {
	segmentsOpened atomic.Int64
	deltaRows      atomic.Int64
	bytesRead      atomic.Int64
}

func (s *IOStats) addSegmentOpened() {
	if s != nil {
		s.segmentsOpened.Add(1)
	}
}

func (s *IOStats) addDeltaRows(n int) {
	if s != nil && n > 0 {
		s.deltaRows.Add(int64(n))
	}
}

func (s *IOStats) addBytesRead(n int) {
	if s != nil && n > 0 {
		s.bytesRead.Add(int64(n))
	}
}

// SegmentsOpened returns the number of column files opened (one per
// relation at OpenDir).
func (s *IOStats) SegmentsOpened() int64 {
	if s == nil {
		return 0
	}
	return s.segmentsOpened.Load()
}

// DeltaRows returns the number of delta-layer rows merged into iterator
// output.
func (s *IOStats) DeltaRows() int64 {
	if s == nil {
		return 0
	}
	return s.deltaRows.Load()
}

// BytesRead returns the number of column-file bytes read (each file once,
// when its relation is first touched; at open for the memory engine).
func (s *IOStats) BytesRead() int64 {
	if s == nil {
		return 0
	}
	return s.bytesRead.Load()
}
