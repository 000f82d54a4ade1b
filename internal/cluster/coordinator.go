// Package cluster implements flockd's multi-process scale-out: an HTTP
// scatter/gather client with per-shard timeout/retry, the /partial wire
// (a dictionary-coded body of group states, wire.go), the data partition
// (shardmap.go), and a coordinator session that takes over FILTER
// computations (§4.1) via core.EvalOptions.FilterEval. A worker restricts
// its data with Map.Restrict, the coordinator scatters a computation only
// when Shardable accepts it, and the shards' states merge in shard order,
// so answers are the same set at every shard count. A computation the map
// cannot legally partition falls back to coordinator-local evaluation.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/obs"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// Coordinator owns a shard map and a scatter client and turns FILTER
// computations into scatter/gather rounds. It is mounted into a request's
// core.EvalOptions via Session().FilterEval; computations the shard map
// cannot legally partition (see Shardable) are declined back to the
// local evaluator — the coordinator holds the full database, so falling
// back is always correct, just not distributed.
type Coordinator struct {
	Map    *Map
	Client *Client
	// AllowPartial serves degraded answers when some (not all) shards
	// fail: the dead shards' partitions are simply missing from the
	// merge, and the report carries partial=true plus the failed shards.
	AllowPartial bool

	base map[string]bool // base relation names the workers hold locally
}

// New builds a coordinator. baseRels names the relations the workers were
// started with; anything else a query references (materialized views,
// earlier FILTER-step results) is shipped inline with each request.
func New(m *Map, c *Client, baseRels []string) *Coordinator {
	base := make(map[string]bool, len(baseRels))
	for _, n := range baseRels {
		base[n] = true
	}
	return &Coordinator{Map: m, Client: c, base: base}
}

// Session returns the per-request state: a FilterEval hook plus the
// cluster stats it accumulates. One session serves one evaluation.
func (co *Coordinator) Session() *Session {
	return &Session{co: co, stats: obs.ClusterStats{
		Shards:   co.Map.Shards,
		ShardRel: co.Map.Rel,
		ShardCol: co.Map.Col,
	}}
}

// Session accumulates one request's scatter/gather statistics. FilterEval
// may be called from concurrent union branches; the stats are mutex-kept.
type Session struct {
	co    *Coordinator
	mu    sync.Mutex
	stats obs.ClusterStats
}

// Stats returns a snapshot of the session's cluster block for the merged
// RunReport.
func (s *Session) Stats() *obs.ClusterStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.stats
	c.Failed = append([]string(nil), s.stats.Failed...)
	return &c
}

// FilterEval is the core.FilterEvalFn the coordinator mounts: scatter the
// computation to the shards, gather their exported group states, and
// merge them in shard order (physical.MergeGroupStates). Computations the
// map cannot legally partition return handled=false and run locally.
func (s *Session) FilterEval(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter core.Filter, name string, opts *core.EvalOptions) (*storage.Relation, bool, error) {

	if ok, _ := Shardable(s.co.Map, params, query, filter); !ok {
		s.mu.Lock()
		s.stats.Fallbacks++
		s.mu.Unlock()
		return nil, false, nil
	}
	req, err := s.co.buildRequest(db, params, query, filter, name)
	if err != nil {
		// Can't describe the computation on the wire: evaluate locally.
		s.mu.Lock()
		s.stats.Fallbacks++
		s.mu.Unlock()
		return nil, false, nil
	}

	ctx := context.Background()
	if opts != nil && opts.Ctx != nil {
		ctx = opts.Ctx
	}
	results := s.co.Client.Scatter(ctx, req)

	want := filter.Aggregate().StateKind(req.Additive)
	var (
		failed       []string
		firstErr     error
		parts        []*physical.GroupStates
		groupsIn     int
		partialBytes int
	)
	for i := range results {
		r := &results[i]
		// A well-formed answer to some other question is a failed shard too.
		if st := r.Resp; r.Err == nil && (st.States.Kind != want || len(st.States.Params) != len(params)) {
			r.Err = &ShardError{Shard: r.Addr, Status: http.StatusOK, Err: fmt.Errorf(
				"bad response body: state kind %d over %d params, asked for kind %d over %d",
				st.States.Kind, len(st.States.Params), want, len(params))}
		}
		if r.Err != nil {
			failed = append(failed, r.Addr)
			if firstErr == nil {
				firstErr = r.Err
			}
			continue // degraded, if allowed: the dead shard's partition is absent
		}
		parts = append(parts, r.Resp.States)
		groupsIn += r.Resp.States.Len()
		partialBytes += r.Resp.Bytes
	}
	if firstErr != nil && (!s.co.AllowPartial || len(parts) == 0) {
		return nil, true, firstErr
	}
	if opts != nil && opts.Trace != nil {
		col := opts.Trace.Collector()
		for _, res := range results {
			if res.Err != nil {
				col.Record(obs.Event{Op: obs.OpShard, Desc: res.Addr + " FAILED", Wall: res.Wall})
				continue
			}
			n := res.Resp.States.Len()
			col.Record(obs.Event{Op: obs.OpShard, Desc: res.Addr, RowsOut: n, Groups: n, Bytes: res.Resp.Bytes, Wall: res.Wall})
			if rep := res.Resp.Report; rep != nil {
				col.ObserveStorage(rep.SegmentsOpened, rep.DeltaRows, rep.StorageBytesRead)
			}
		}
	}
	// Fold the shards' states in shard order, then apply the sequential
	// group-by's checkpoints: the merged group map and the answer are live
	// at once, and the answer is capped.
	start := time.Now()
	cols := make([]string, len(params))
	for i, p := range params {
		cols[i] = "$" + string(p)
	}
	rel, merged, err := physical.MergeGroupStates(filter.Aggregate(), req.Additive, name, cols, parts)
	if err != nil {
		return nil, true, err
	}
	var gate *physical.Gate
	if opts != nil {
		gate = opts.Gate
	}
	gate.NoteLive(merged + rel.Len())
	if err := gate.CheckOutput(rel.Len()); err != nil {
		return nil, true, err
	}
	if err := gate.Check(); err != nil {
		return nil, true, err
	}
	if opts != nil && opts.Trace != nil {
		opts.Trace.Collector().Record(obs.Event{
			Op:      obs.OpGroup,
			Desc:    fmt.Sprintf("%s [%s] (merged %d shards)", name, filter, len(parts)),
			RowsIn:  groupsIn,
			RowsOut: rel.Len(),
			Groups:  merged,
			Workers: len(parts),
			Wall:    time.Since(start),
		})
	}

	s.mu.Lock()
	s.stats.Scattered++
	s.stats.MergedGroups += merged
	s.stats.PartialBytes += partialBytes
	if len(failed) > 0 {
		s.stats.Partial = true
		for _, f := range failed {
			if !slices.Contains(s.stats.Failed, f) {
				s.stats.Failed = append(s.stats.Failed, f)
			}
		}
	}
	s.mu.Unlock()
	return rel, true, nil
}

// buildRequest serializes one FILTER computation for the wire, shipping
// every referenced relation the workers do not hold (views, earlier step
// results) as literal rows.
func (co *Coordinator) buildRequest(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter core.Filter, name string) (*PartialRequest, error) {

	req := &PartialRequest{
		Query:    query.String(),
		Filter:   filter.String(),
		Name:     name,
		Version:  db.Version(),
		Additive: Additive(co.Map, query, filter),
	}
	req.Params = make([]string, len(params))
	for i, p := range params {
		req.Params[i] = string(p)
	}

	shipped := make(map[string]bool)
	var aux []string
	for _, r := range query {
		for _, pred := range r.Predicates() {
			if co.base[pred] || shipped[pred] {
				continue
			}
			shipped[pred] = true
			aux = append(aux, pred)
		}
	}
	sort.Strings(aux)
	for _, pred := range aux {
		rel, err := db.Relation(pred)
		if err != nil {
			return nil, err
		}
		a := AuxRel{Name: pred, Columns: rel.Columns()}
		for _, t := range rel.Tuples() {
			row := make([]string, len(t))
			for j, v := range t {
				row[j] = v.Literal()
			}
			a.Rows = append(a.Rows, row)
		}
		req.Aux = append(req.Aux, a)
	}
	return req, nil
}
