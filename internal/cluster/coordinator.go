package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/obs"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// Coordinator owns a shard map and a scatter client and turns FILTER
// computations into scatter/gather rounds. It is mounted into a request's
// core.EvalOptions via Session().FilterEval; computations the shard map
// cannot legally partition (see legal) are declined back to the local
// evaluator — the coordinator holds the full database, so falling back is
// always correct, just not distributed.
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
// merge them in shard order. Computations the map cannot legally
// partition return handled=false and run locally.
func (s *Session) FilterEval(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter core.Filter, name string, opts *core.EvalOptions) (*storage.Relation, bool, error) {

	if !legal(s.co.Map, params, query, filter) {
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

	// A well-formed answer to some other question is a failed shard too.
	agg := filter.Aggregate()
	want := agg.StateKind(req.Additive)
	for i := range results {
		r := &results[i]
		if st := r.Resp; r.Err == nil && (st.States.Kind != want || len(st.States.Params) != len(params)) {
			r.Err = &ShardError{Shard: r.Addr, Status: http.StatusOK, Err: fmt.Errorf(
				"bad response body: state kind %d over %d params, asked for kind %d over %d",
				st.States.Kind, len(st.States.Params), want, len(params))}
		}
	}

	var failed []string
	for _, res := range results {
		if res.Err != nil {
			failed = append(failed, res.Addr)
		}
	}
	if len(failed) > 0 {
		if !s.co.AllowPartial || len(failed) == len(results) {
			for _, res := range results {
				if res.Err != nil {
					return nil, true, res.Err
				}
			}
		}
	}

	parts := make([]*physical.GroupStates, 0, len(results))
	partialBytes := 0
	for _, res := range results {
		if res.Err != nil {
			continue // degraded: the dead shard's partition is absent
		}
		parts = append(parts, res.Resp.States)
		partialBytes += res.Resp.Bytes
	}
	paramCols := make([]string, len(params))
	for i, p := range params {
		paramCols[i] = "$" + string(p)
	}
	rel, merged, err := physical.MergeGroupStates(agg, req.Additive, name, paramCols, parts)
	if err != nil {
		return nil, true, err
	}

	// The coordinator holds the merged group map and answer live at once;
	// apply the same budget/row-cap checkpoints as the local group-by.
	if opts != nil {
		opts.Gate.NoteLive(merged + rel.Len())
		if err := opts.Gate.CheckOutput(rel.Len()); err != nil {
			return nil, true, err
		}
		if err := opts.Gate.Check(); err != nil {
			return nil, true, err
		}
	}

	if opts != nil && opts.Trace != nil {
		col := opts.Trace.Collector()
		groupsIn := 0
		for _, res := range results {
			if res.Err != nil {
				col.Record(obs.Event{Op: obs.OpShard, Desc: res.Addr + " FAILED", Wall: res.Wall})
				continue
			}
			n := res.Resp.States.Len()
			col.Record(obs.Event{Op: obs.OpShard, Desc: res.Addr, RowsOut: n, Groups: n, Bytes: res.Resp.Bytes, Wall: res.Wall})
			groupsIn += n
			if rep := res.Resp.Report; rep != nil {
				col.ObserveStorage(rep.SegmentsOpened, rep.DeltaRows, rep.StorageBytesRead)
			}
		}
		col.Record(obs.Event{
			Op:      obs.OpGroup,
			Desc:    fmt.Sprintf("%s [%s] (merged %d shards)", name, filter, len(parts)),
			RowsIn:  groupsIn,
			RowsOut: rel.Len(),
			Groups:  merged,
			Workers: len(parts),
		})
	}

	s.mu.Lock()
	s.stats.Scattered++
	s.stats.MergedGroups += merged
	s.stats.PartialBytes += partialBytes
	if len(failed) > 0 {
		s.stats.Partial = true
		for _, f := range failed {
			if !containsStr(s.stats.Failed, f) {
				s.stats.Failed = append(s.stats.Failed, f)
			}
		}
	}
	s.mu.Unlock()
	return rel, true, nil
}

func containsStr(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
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
		Additive: additive(co.Map, query, filter),
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

// legal decides whether sharding the query on m partitions the extended
// answer exactly — the condition for the scattered merge to reproduce the
// single-node answer bit for bit:
//
//  1. Every rule has at least one positive atom of the sharded relation
//     (a rule without one would be recomputed whole on every shard,
//     duplicating its tuples in the merge).
//  2. No rule negates the sharded relation (a restricted worker would see
//     a smaller complement and admit tuples the full data rejects).
//  3. Within each rule, all positive atoms of the sharded relation bind
//     the same term at the shard column, so one joined tuple carries one
//     shard-key value and lives on exactly one shard.
//  4. That term reaches the extended output — it is one of the
//     computation's parameters or a head argument — so distinct extended
//     tuples from different shards stay distinct after projection. (A
//     constant term is sound without this: only the owning shard can
//     produce matches at all.)
//
// Additionally the filter must resolve to the same head position against
// this query's head as the coordinator resolved it, so both sides
// aggregate the same column.
func legal(m *Map, params []datalog.Param, query datalog.Union, filter core.Filter) bool {
	ok, _ := Shardable(m, params, query, filter)
	return ok
}

// Shardable is the reason-returning form of the shardability decision:
// when the map cannot legally partition the computation it returns false
// and a one-line explanation of which rule (1–4 above) failed. The
// coordinator consults it per computation; the serving layer's QF024
// lint pass surfaces the same reason at admission time so authors learn
// about a coordinator-local fallback before paying for it.
func Shardable(m *Map, params []datalog.Param, query datalog.Union, filter core.Filter) (bool, string) {
	if len(query) == 0 {
		return false, "the query is empty"
	}
	refilter, err := core.NewFilter(filter.Spec(), query[0].Head)
	if err != nil || refilter.HeadPos() != filter.HeadPos() {
		return false, "the filter does not resolve to the same head column on the workers as on the coordinator"
	}
	paramSet := make(map[datalog.Param]bool, len(params))
	for _, p := range params {
		paramSet[p] = true
	}
	for _, r := range query {
		for _, a := range r.NegatedAtoms() {
			if a.Pred == m.Rel {
				// rule 2
				return false, fmt.Sprintf("rule %s negates the sharded relation %s, and a worker's smaller complement would admit tuples the full data rejects", r.Head, m.Rel)
			}
		}
		t, reason := shardTerm(m, r)
		if reason != "" {
			return false, reason
		}
		switch term := t.(type) {
		case datalog.Const:
			// Sound without reaching the output (rule 4's parenthetical).
		case datalog.Param:
			if !paramSet[term] {
				// rule 4
				return false, fmt.Sprintf("rule %s: the shard-column parameter %s is not one of the computation's parameters, so shard-distinct tuples could collide after projection", r.Head, term)
			}
		case datalog.Var:
			inHead := false
			for _, h := range r.Head.Args {
				if h == t {
					inHead = true
					break
				}
			}
			if !inHead {
				// rule 4
				return false, fmt.Sprintf("rule %s: the shard-column variable %s does not reach the head, so shard-distinct tuples could collide after projection", r.Head, term)
			}
		default:
			return false, fmt.Sprintf("rule %s: unsupported term %v at the shard column", r.Head, t)
		}
	}
	return true, ""
}

// shardTerm returns the one term rule r's positive atoms of the sharded
// relation bind at the shard column, or the reason rule 1 or 3 fails.
func shardTerm(m *Map, r *datalog.Rule) (datalog.Term, string) {
	var sharded []*datalog.Atom
	for _, a := range r.PositiveAtoms() {
		if a.Pred == m.Rel {
			sharded = append(sharded, a)
		}
	}
	if len(sharded) == 0 {
		// rule 1
		return nil, fmt.Sprintf("rule %s has no positive subgoal of the sharded relation %s, so every shard would recompute it whole and duplicate its tuples in the merge", r.Head, m.Rel)
	}
	if m.Col >= len(sharded[0].Args) {
		return nil, fmt.Sprintf("shard column %d is out of range for %s/%d", m.Col, m.Rel, len(sharded[0].Args))
	}
	t := sharded[0].Args[m.Col]
	for _, a := range sharded[1:] {
		if m.Col >= len(a.Args) || a.Args[m.Col] != t {
			// rule 3
			return nil, fmt.Sprintf("rule %s binds different terms at the shard column (%s column %d), so one joined tuple could live on two shards", r.Head, m.Rel, m.Col)
		}
	}
	return t, ""
}

// additive reports whether a COUNT-distinct filter's count over a legal
// scatter is the sum of the shards' counts: in every rule the counted
// head variable is the very term rule 3 finds at the shard column. Then a
// value v counted on shard i comes from a joined tuple whose sharded atom
// holds v at the shard column, so v lies in shard i's range; the ranges
// are disjoint, so no two shards count the same value into a group, and
// the size of the union of the shards' value sets is the sum of their
// sizes. It is a property of the shard map and the query — never a
// setting — and the coordinator states it in each request.
func additive(m *Map, query datalog.Union, filter core.Filter) bool {
	if filter.Aggregate().Kind != physical.AggCountDistinct {
		return false
	}
	for _, r := range query {
		t, _ := shardTerm(m, r)
		if _, ok := t.(datalog.Var); !ok || r.Head.Args[filter.HeadPos()] != t {
			return false
		}
	}
	return true
}
