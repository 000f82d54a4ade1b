package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

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
			return "", 0, fmt.Errorf("cluster: bad -shard-by column in %q (want rel or rel:col)", s)
		}
	}
	if rel == "" {
		return "", 0, fmt.Errorf("cluster: bad -shard-by %q (want rel or rel:col)", s)
	}
	return rel, col, nil
}

// BuildMap constructs the partition map for db. With rel == "" the
// largest relation is partitioned (ties break to the lexicographically
// smallest name), on column col. The map depends only on the relation's
// contents, not on tuple order.
func BuildMap(db *storage.Database, rel string, col, shards int) (*Map, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d < 1", shards)
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
			return nil, fmt.Errorf("cluster: empty database, nothing to shard")
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
		return nil, nil, fmt.Errorf("cluster: shard column %d out of range for %s/%d", col, rel, src.Arity())
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
		return nil, fmt.Errorf("cluster: shard index %d out of range [0,%d)", idx, m.Shards)
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
			if !slices.Contains(r.Head.Args, t) {
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
func Additive(m *Map, query datalog.Union, filter core.Filter) bool {
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
