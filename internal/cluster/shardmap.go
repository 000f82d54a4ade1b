// Package cluster implements flockd's multi-process scale-out: a
// contiguous range-sharding map over one base relation, an HTTP
// scatter/gather client with per-shard timeout/retry, the worker-side
// /partial handler, and a coordinator that takes over FILTER computations
// (§4.1) via core.EvalOptions.FilterEval — each worker aggregates its
// shard's partition of the extended answer through the columnar group
// operator and ships the per-group states in a dictionary-coded body
// (wire.go), which physical.MergeGroupStates folds in shard order.
//
// The design inherits the engine's parallel-correctness contract: the
// shard map partitions on sorted distinct values of one column (the same
// contiguous range partitioning the in-process join and group-by use), the
// per-shard states merge in shard order, and a computation the map cannot
// legally partition falls back to coordinator-local evaluation — so
// answers are bit-identical at every shard count.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"queryflocks/internal/storage"
)

// Map is a contiguous range-sharding of one relation's tuples across
// Shards workers, keyed on column Col. The cut points are positions in
// the sorted distinct (normalized) value list of that column, so the map
// is a deterministic function of the data: every process that builds a
// map over the same relation gets the same assignment, which lets workers
// restrict themselves without coordinator round-trips.
type Map struct {
	Rel    string
	Col    int
	Shards int

	vals []storage.Value // sorted distinct normalized shard-column values
	cuts []int           // len Shards+1; shard i owns vals[cuts[i]:cuts[i+1]]
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

// BuildMap constructs the shard map for db. With rel == "" the largest
// relation is sharded (ties break to the lexicographically smallest name),
// on column col. The map depends only on the relation's contents, not on
// tuple order.
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
	r, err := db.Relation(rel)
	if err != nil {
		return nil, err
	}
	if col < 0 || col >= r.Arity() {
		return nil, fmt.Errorf("cluster: shard column %d out of range for %s/%d", col, rel, r.Arity())
	}
	//lint:ignore DL005 keys are Normalize()d at the insertion below
	seen := make(map[storage.Value]struct{})
	for _, t := range r.Tuples() {
		seen[t[col].Normalize()] = struct{}{}
	}
	vals := make([]storage.Value, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
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

// ShardOf returns the shard owning value v. Values absent from the map
// (mutations after it was built) route deterministically by sort position.
func (m *Map) ShardOf(v storage.Value) int {
	v = v.Normalize()
	// Position of v in the sorted distinct list (insertion point for
	// unseen values).
	pos := sort.Search(len(m.vals), func(i int) bool { return m.vals[i].Compare(v) >= 0 })
	// The owning shard is the one whose range contains pos.
	s := sort.Search(m.Shards, func(i int) bool { return m.cuts[i+1] > pos })
	if s >= m.Shards {
		return m.Shards - 1 // v sorts past every cut: last shard
	}
	return s
}

// Restrict returns shard idx's view of db: the sharded relation cut down
// to the tuples this shard owns (in original tuple order), every other
// relation passed through whole (small relations are replicated), and the
// data version preserved so coordinator and workers agree on cache scope.
func (m *Map) Restrict(db *storage.Database, idx int) (*storage.Database, error) {
	if idx < 0 || idx >= m.Shards {
		return nil, fmt.Errorf("cluster: shard index %d out of range [0,%d)", idx, m.Shards)
	}
	out := storage.NewDatabase()
	for _, name := range db.Names() {
		if name != m.Rel {
			out.AddSource(db.MustSource(name))
			continue
		}
		r, err := db.Relation(name)
		if err != nil {
			return nil, err
		}
		cut := storage.NewRelation(name, r.Columns()...)
		for _, t := range r.Tuples() {
			if m.ShardOf(t[m.Col]) == idx {
				cut.Insert(t)
			}
		}
		out.Add(cut)
	}
	out.SetVersion(db.Version())
	if db.IO() != nil {
		out.SetIO(db.IO())
	}
	return out, nil
}

// String describes the map for logs and reports.
func (m *Map) String() string {
	return fmt.Sprintf("%s:%d over %d values -> %d shards", m.Rel, m.Col, len(m.vals), m.Shards)
}
