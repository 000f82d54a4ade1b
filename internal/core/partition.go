package core

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/obs"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// This file is the one parallelism model of FILTER computations (§4.1):
// split the input on one column of one relation into disjoint parts,
// evaluate the computation over each part up to its group states
// (EvalPartialGroups), and merge the states in part order (MergeParts).
// The local evaluator runs the parts as goroutines when Workers asks for
// more than one (evalPartitioned); the cluster coordinator ships each part
// to a worker shard. Both decide with the same rule (Shardable) whether
// the parts reproduce the single-node answer, so answers are the same set
// at every worker and shard count, in an order fixed by the count.

// Map is a contiguous range partitioning of one relation's tuples into
// Shards parts, keyed on column Col. The cut points are positions in the
// sorted distinct (normalized) value list of that column, so the map is a
// deterministic function of the data: every process that builds a map
// over the same relation gets the same assignment, which lets cluster
// workers restrict themselves without coordinator round-trips.
type Map struct {
	Rel    string
	Col    int
	Shards int

	vals []storage.Value // sorted distinct normalized shard-column values
	cuts []int           // len Shards+1; part i owns vals[cuts[i]:cuts[i+1]]
}

// ParseShardBy parses the -shard-by flag: "rel" or "rel:col". An empty
// string selects the default relation (the largest) and column 0.
func ParseShardBy(s string) (rel string, col int, err error) {
	if s == "" {
		return "", 0, nil
	}
	rel = s
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		rel = s[:i]
		col, err = strconv.Atoi(s[i+1:])
		if err != nil || col < 0 {
			return "", 0, fmt.Errorf("core: bad -shard-by column in %q (want rel or rel:col)", s)
		}
	}
	if rel == "" {
		return "", 0, fmt.Errorf("core: bad -shard-by %q (want rel or rel:col)", s)
	}
	return rel, col, nil
}

// BuildMap constructs the partition map for db. With rel == "" the
// largest relation is partitioned (ties break to the lexicographically
// smallest name), on column col. The map depends only on the relation's
// contents, not on tuple order.
func BuildMap(db *storage.Database, rel string, col, shards int) (*Map, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core: shard count %d < 1", shards)
	}
	if rel == "" {
		names := append([]string(nil), db.Names()...)
		sort.Strings(names)
		best, bestLen := "", -1
		for _, n := range names {
			if l := db.MustSource(n).Len(); l > bestLen {
				best, bestLen = n, l
			}
		}
		if best == "" {
			return nil, fmt.Errorf("core: empty database, nothing to shard")
		}
		rel = best
	}
	dict, ids, err := columnIDs(db, rel, col)
	if err != nil {
		return nil, err
	}
	// IDs are equality classes, so distinct IDs are distinct values.
	present := make([]bool, dict.Len())
	for _, id := range ids[col] {
		present[id] = true
	}
	var vals []storage.Value
	for id, ok := range present {
		if ok {
			vals = append(vals, dict.Value(uint32(id)).Normalize())
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })

	cuts := make([]int, shards+1)
	base, extra := len(vals)/shards, len(vals)%shards
	for i := 0; i < shards; i++ {
		cuts[i+1] = cuts[i] + base
		if i < extra {
			cuts[i+1]++
		}
	}
	return &Map{Rel: rel, Col: col, Shards: shards, vals: vals, cuts: cuts}, nil
}

// columnIDs returns db's dictionary and relation rel's ID columns, after
// checking that rel has a column col.
func columnIDs(db *storage.Database, rel string, col int) (*storage.Dict, [][]uint32, error) {
	src, err := db.Source(rel)
	if err != nil {
		return nil, nil, err
	}
	if col < 0 || col >= src.Arity() {
		return nil, nil, fmt.Errorf("core: shard column %d out of range for %s/%d", col, rel, src.Arity())
	}
	dict, err := db.Dict()
	if err != nil {
		return nil, nil, err
	}
	ids, err := src.InternedColumns(dict, nil)
	if err != nil {
		return nil, nil, err
	}
	return dict, ids, nil
}

// ShardOf returns the part owning value v. Values absent from the map
// (mutations after it was built) route deterministically by sort position.
func (m *Map) ShardOf(v storage.Value) int {
	v = v.Normalize()
	// Position of v in the sorted distinct list (insertion point for
	// unseen values).
	pos := sort.Search(len(m.vals), func(i int) bool { return m.vals[i].Compare(v) >= 0 })
	// The owning part is the one whose range contains pos.
	s := sort.Search(m.Shards, func(i int) bool { return m.cuts[i+1] > pos })
	if s >= m.Shards {
		return m.Shards - 1 // v sorts past every cut: last part
	}
	return s
}

// Restrict returns part idx's view of db: the partitioned relation cut
// down to the tuples this part owns (in original tuple order, as ID rows
// of db's dictionary), every other relation passed through whole, and the
// dictionary and data version shared with db, so the parts of one
// computation intern into one ID space and a worker shard answers for its
// coordinator's data version.
func (m *Map) Restrict(db *storage.Database, idx int) (*storage.Database, error) {
	if idx < 0 || idx >= m.Shards {
		return nil, fmt.Errorf("core: shard index %d out of range [0,%d)", idx, m.Shards)
	}
	dict, ids, err := columnIDs(db, m.Rel, m.Col)
	if err != nil {
		return nil, err
	}
	cut := storage.NewRelationIn(dict, m.Rel, db.MustSource(m.Rel).Columns()...)
	// owner[id] is the part owning ID id plus one, 0 until first asked.
	owner := make([]int32, dict.Len())
	row := make([]uint32, len(ids))
	for i, id := range ids[m.Col] {
		if owner[id] == 0 {
			owner[id] = int32(m.ShardOf(dict.Value(id))) + 1
		}
		if int(owner[id]) != idx+1 {
			continue
		}
		for j, col := range ids {
			row[j] = col[i]
		}
		cut.InsertIDs(row)
	}
	out := db.Clone()
	out.Add(cut)
	return out, nil
}

// String describes the map for logs and reports.
func (m *Map) String() string {
	return fmt.Sprintf("%s:%d over %d values -> %d shards", m.Rel, m.Col, len(m.vals), m.Shards)
}

// Shardable decides whether partitioning the query on m splits the
// extended answer exactly — the condition for merging the parts' group
// states to reproduce the single-node answer. When it does not, it
// returns false and a one-line explanation of which rule failed:
//
//  1. Every rule has at least one positive atom of the partitioned
//     relation (a rule without one would be recomputed whole on every
//     part, duplicating its tuples in the merge).
//  2. No rule negates the partitioned relation (a part would see a
//     smaller complement and admit tuples the full data rejects).
//  3. Within each rule, all positive atoms of the partitioned relation
//     bind the same term at the partition column, so one joined tuple
//     carries one key value and lives in exactly one part.
//  4. That term reaches the extended output — it is one of the
//     computation's parameters or a head argument — so distinct extended
//     tuples from different parts stay distinct after projection. (A
//     constant term is sound without this: only the owning part can
//     produce matches at all.)
//
// Additionally the filter must resolve to the same head position against
// this query's head as the caller resolved it, so a worker shard
// aggregates the same column. The serving layer's QF024 lint pass
// surfaces the reason at admission time.
func Shardable(m *Map, params []datalog.Param, query datalog.Union, filter Filter) (bool, string) {
	if len(query) == 0 {
		return false, "the query is empty"
	}
	refilter, err := NewFilter(filter.Spec(), query[0].Head)
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

// shardTerm returns the one term rule r's positive atoms of the
// partitioned relation bind at the partition column, or the reason rule 1
// or 3 fails.
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

// Additive reports whether a COUNT-distinct filter's count over a
// shardable partitioning is the sum of the parts' counts: in every rule
// the counted head variable is the very term rule 3 finds at the
// partition column. Then a value v counted in part i comes from a joined
// tuple whose partitioned atom holds v at the partition column, so v lies
// in part i's range; the ranges are disjoint, so no two parts count the
// same value into a group, and the size of the union of the parts' value
// sets is the sum of their sizes. It is a property of the map and the
// query — never a setting.
func Additive(m *Map, query datalog.Union, filter Filter) bool {
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

// partitions resolves the Workers knob: 0 is one part per CPU, a
// negative value one part.
func (o *EvalOptions) partitions() int {
	if o == nil || o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(o.Workers, 1)
}

// evalPartitioned runs one FILTER computation as w in-process parts of
// the default map (the largest relation, column 0) when Shardable accepts
// it and the relation is held in memory: each part is a sequential
// EvalPartialGroups over its Restrict view, and MergeParts folds their
// states in part order. handled=false (no error) means the computation
// runs sequentially instead. The tuple budget charges the sum of the
// parts' peaks; a traced run records each part's operators, part by part,
// before the merged group.
func evalPartitioned(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter Filter, name string, w int, opts *EvalOptions) (*storage.Relation, bool, error) {

	m, err := BuildMap(db, "", 0, w)
	if err != nil {
		return nil, false, nil // the sequential path reports what is wrong with db
	}
	// Cutting a disk source would copy its ID columns into in-memory
	// relations beside the resident ones: it runs sequentially.
	_, inMemory := db.MustSource(m.Rel).(*storage.Relation)
	if ok, _ := Shardable(m, params, query, filter); !ok || !inMemory {
		return nil, false, nil
	}
	if opts == nil {
		opts = &EvalOptions{}
	}
	additive, part := Additive(m, query, filter), *opts.subquery()
	part.Gate = part.Gate.Pooled()
	col := opts.Trace.Collector() // anchors the run's clock before the parts start
	parts, cols, errs := make([]*physical.GroupStates, w), make([]*obs.Collector, w), make([]error, w)
	panics := make([]any, w)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int, o EvalOptions) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			if o.Trace != nil {
				o.Trace = &eval.Trace{}
				cols[i] = o.Trace.Collector()
			}
			pdb, err := m.Restrict(db, i)
			if err == nil {
				parts[i], err = EvalPartialGroups(pdb, params, query, filter, name, additive, &o)
			}
			errs[i] = err
		}(i, part)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p) // on the caller's goroutine, where the serving layer recovers
		}
	}
	col.Absorb(cols)
	for _, err := range errs {
		if err != nil {
			return nil, true, err
		}
	}
	rel, _, err := MergeParts(parts, params, filter, name, additive, opts)
	return rel, true, err
}

// MergeParts is the tail of every partitioned FILTER computation, local or
// scattered: fold the parts' group states in part order
// (physical.MergeGroupStates), charge the merged groups and the answer to
// the tuple budget and the answer to the row cap, and record the merged
// group event. It returns the answer and the number of merged groups.
func MergeParts(parts []*physical.GroupStates, params []datalog.Param, filter Filter, name string,
	additive bool, opts *EvalOptions) (*storage.Relation, int, error) {

	var start time.Time
	if opts != nil && opts.Trace != nil {
		start = time.Now()
	}
	cols := make([]string, len(params))
	for i, p := range params {
		cols[i] = "$" + string(p)
	}
	rel, merged, err := physical.MergeGroupStates(filter.Aggregate(), additive, name, cols, parts)
	if err != nil {
		return nil, 0, err
	}
	// The merged group map and the answer are live at once; apply the
	// same budget and row-cap checkpoints as the sequential group-by.
	opts.gate().NoteLive(merged + rel.Len())
	if err := opts.gate().CheckOutput(rel.Len()); err != nil {
		return nil, 0, err
	}
	if err := opts.gate().Check(); err != nil {
		return nil, 0, err
	}
	if opts != nil && opts.Trace != nil {
		groupsIn := 0
		for _, p := range parts {
			groupsIn += p.Len()
		}
		opts.Trace.Collector().Record(obs.Event{
			Op:      obs.OpGroup,
			Desc:    fmt.Sprintf("%s [%s] (merged %d parts)", name, filter, len(parts)),
			RowsIn:  groupsIn,
			RowsOut: rel.Len(),
			Groups:  merged,
			Workers: len(parts),
			Wall:    time.Since(start),
		})
	}
	return rel, merged, nil
}
