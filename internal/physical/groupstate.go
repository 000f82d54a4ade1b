package physical

import (
	"fmt"
	"time"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// This file is the group operator's aggregate model: the FILTER
// condition as the operator evaluates it (Aggregate), one group's state
// over value IDs (groupState), the exported form a cluster worker ships
// (GroupStates), and the merge that folds the shards' exports back into
// the computation's answer. The operator's build loop, the export and the
// merge share one definition of when a group passes.

// AggKind names the aggregate of a FILTER condition (§5).
type AggKind uint8

// The aggregates a FILTER condition can apply to a group's query result.
const (
	// AggCount counts the group's distinct head tuples: COUNT(answer(*)).
	AggCount AggKind = iota
	// AggCountDistinct counts the distinct values of one head column:
	// COUNT(answer.C).
	AggCountDistinct
	// AggSum sums one head column over the distinct head tuples.
	AggSum
	// AggMin and AggMax keep the extreme of one head column.
	AggMin
	AggMax
)

// Aggregate is a FILTER condition in the form the group operator
// evaluates: which aggregate, over which head column, and the comparison
// against the threshold. core.Filter renders itself to this.
type Aggregate struct {
	Kind AggKind
	// Col is the head-tuple position the aggregate reads; AggCount, which
	// ranges over whole head tuples, ignores it.
	Col int
	// Monotone reports that once the condition holds of a group's
	// aggregate no further head tuple can make it false (§5), so the group
	// may stop accumulating. SUM never short-circuits even when monotone: a
	// negative weight arriving later — or sitting in another worker's or
	// shard's part of the group — can drag the sum back under the
	// threshold, which would make the verdict depend on arrival order.
	Monotone bool
	// Op and Threshold are the comparison: a group passes when
	// Op.Eval(aggregate, Threshold) holds.
	Op        datalog.CmpOp
	Threshold storage.Value
}

// shortCircuits reports whether a passing group may stop accumulating.
func (a Aggregate) shortCircuits() bool { return a.Monotone && a.Kind != AggSum }

// groupState is one parameter group's aggregate over value IDs. The IDs
// index whatever table the holder decodes through: the database
// dictionary inside the operator, the merged literal table inside
// MergeGroupStates.
type groupState struct {
	n    int64   // AggCount: distinct head tuples; AggCountDistinct: distinct values
	sum  float64 // AggSum
	cur  uint32  // AggMin/AggMax: ID of the extreme so far
	has  bool    // AggSum/AggMin/AggMax: the group saw a value
	done bool    // the monotone short-circuit fired: the verdict is final
}

// passes decides the condition on a group's current aggregate. value
// decodes an ID of the table s.cur indexes. SUM, MIN and MAX over no
// value are undefined, not zero, and do not pass. A count compares as the
// Int and a sum as the Float it stands for, without boxing either.
func (a Aggregate) passes(s *groupState, value func(uint32) storage.Value) bool {
	switch a.Kind {
	case AggCount, AggCountDistinct:
		return a.Op.Accepts(storage.CompareInt(s.n, a.Threshold))
	case AggSum:
		return s.has && a.Op.Accepts(storage.CompareFloat(s.sum, a.Threshold))
	default:
		return s.has && a.Op.Eval(value(s.cur), a.Threshold)
	}
}

// better reports whether v replaces w as the extreme of a MIN or MAX.
func (a Aggregate) better(v, w storage.Value) bool {
	c := v.Compare(w)
	return a.Kind == AggMin && c < 0 || a.Kind == AggMax && c > 0
}

// aggregator is the one aggregation loop of a FILTER condition over ID
// rows: it numbers the parameter assignments of its input in first-seen
// order and folds each assignment's distinct head tuples into a
// groupState. The group operator builds with it, and a §4.4 decision
// barrier that decides to filter reduces with it, so the two cannot
// disagree on which assignments pass. Groups, dedup keys and COUNT
// aggregates live on value IDs — IDs are equality classes, so a
// distinct-ID count is the distinct-value count; only SUM, MIN and MAX
// decode the one column they read.
type aggregator struct {
	agg      Aggregate
	paramPos []int
	// keyPos, paramPos followed by the head positions, is what makes a row
	// a distinct head tuple of its group.
	keyPos []int
	valPos int // the aggregated column; unused by COUNT(*)
	value  func(uint32) storage.Value
	// acct, when non-nil, is charged one buffered tuple per group and per
	// retained dedup key (the group operator's pipeline-breaker state).
	acct *Ctx

	// groups numbers the parameter assignments; states[g] aggregates
	// group g.
	groups *storage.IDTable
	states []groupState
	// seen is the dedup set of (params, head) rows; nil when the caller
	// feeds rows already distinct on keyPos.
	seen     *storage.IDTable
	retained int
	// capture keeps inserting the rows of short-circuited groups into seen,
	// so seen ends as every distinct input row (see Plan.RunCapture).
	capture bool
	// counted, kept by a COUNT-distinct over a head of several columns,
	// holds the (group, value ID) pairs counted so far; with a one-column
	// head the distinct head tuples are the distinct values.
	counted *storage.IDTable
	pair    []uint32 // counted's probe buffer
	// sets, kept only for an export of a non-additive COUNT-distinct, is
	// each group's distinct counted value IDs in arrival order.
	sets     [][]uint32
	keepSets bool

	gids []int32 // add's per-batch group numbers
}

// newAggregator prepares the loop over rows whose parameters sit at
// paramPos and head columns at headPos. distinct vouches that no two
// input rows agree on all of those columns, which spares the dedup set.
func newAggregator(agg Aggregate, paramPos, headPos []int, dict *storage.Dict, distinct bool) *aggregator {
	a := &aggregator{
		agg:      agg,
		paramPos: paramPos,
		keyPos:   append(append([]int(nil), paramPos...), headPos...),
		value:    newDecoder(dict).value,
		groups:   storage.NewIDTable(len(paramPos)),
	}
	if agg.Kind != AggCount {
		a.valPos = headPos[agg.Col]
	}
	if !distinct {
		a.seen = storage.NewIDTable(len(a.keyPos))
	}
	if agg.Kind == AggCountDistinct && len(headPos) > 1 {
		a.counted, a.pair = storage.NewIDTable(2), make([]uint32, 2)
	}
	return a
}

// group returns the group of batch row i, opening it when the row's
// parameter assignment is new.
func (a *aggregator) group(batch colBatch, i int) int32 {
	g, fresh := a.groups.InsertAt(batch.cols, a.paramPos, i)
	if fresh {
		a.states = append(a.states, groupState{})
		if a.keepSets {
			a.sets = append(a.sets, nil)
		}
		if a.acct != nil {
			a.acct.track(1)
		}
	}
	return g
}

// fold feeds the rows of batch, row i belonging to group gids[i], to
// their groups' aggregates in row order. Duplicates on keyPos are
// dropped, so each group sees its distinct head tuples in arrival order —
// exactly the materializing path's distinct extended tuples. Once a
// monotone aggregate passes, its group stops retaining keys — this is
// where streaming beats materializing: large passing groups hold
// threshold-many entries instead of all their rows — unless the
// aggregator captures, which retains every row for a later replay.
func (a *aggregator) fold(batch colBatch, gids []int32) {
	agg := a.agg
	for i, gi := range gids {
		g := &a.states[gi]
		if g.done {
			if a.capture {
				a.retain(batch, i)
			}
			continue
		}
		if a.seen != nil && !a.retain(batch, i) {
			continue
		}
		switch agg.Kind {
		case AggCount:
			g.n++
		case AggCountDistinct:
			id := batch.cols[a.valPos][i]
			if a.counted != nil {
				a.pair[0], a.pair[1] = uint32(gi), id
				if _, fresh := a.counted.Insert(a.pair); !fresh {
					break
				}
			}
			g.n++
			if a.keepSets {
				a.sets[gi] = append(a.sets[gi], id)
			}
		case AggSum:
			g.sum += a.value(batch.cols[a.valPos][i]).AsFloat()
			g.has = true
		default:
			if id := batch.cols[a.valPos][i]; !g.has || agg.better(a.value(id), a.value(g.cur)) {
				g.cur, g.has = id, true
			}
		}
		if agg.shortCircuits() && agg.passes(g, a.value) {
			g.done = true
		}
	}
}

// retain adds batch row i to the dedup set, charging a new key as one
// buffered tuple, and reports whether the row was new.
func (a *aggregator) retain(batch colBatch, i int) bool {
	if _, fresh := a.seen.InsertAt(batch.cols, a.keyPos, i); !fresh {
		return false
	}
	a.retained++
	if a.acct != nil {
		a.acct.track(1)
	}
	return true
}

// add feeds every row of batch to the group its parameters name.
func (a *aggregator) add(batch colBatch) {
	a.gids = a.gids[:0]
	for i := 0; i < batch.n; i++ {
		a.gids = append(a.gids, a.group(batch, i))
	}
	a.fold(batch, a.gids)
}

// passing reports whether group g's condition holds on what fold has fed
// it so far.
func (a *aggregator) passing(g int) bool {
	s := &a.states[g]
	return s.done || a.agg.passes(s, a.value)
}

// StateKind names what an exported group carries per group.
type StateKind uint8

// The exported state forms.
const (
	// StateCount is one integer per group: COUNT(answer(*)), and
	// COUNT(answer.C) when the exporting parts are disjoint on column C —
	// then the distinct count of the union is the sum of the parts'.
	StateCount StateKind = iota + 1
	// StateSet is each group's set of distinct counted values: COUNT
	// (answer.C) when two parts may hold the same value of C.
	StateSet
	// StateSum is the partial sum and whether any value was seen.
	StateSum
	// StateMinMax is the partial extreme and whether any value was seen.
	StateMinMax
)

// StateKind returns the exported form of the aggregate's group states.
// additive says the exporting parts are pairwise disjoint on the counted
// column; it matters to AggCountDistinct only.
func (a Aggregate) StateKind(additive bool) StateKind {
	switch a.Kind {
	case AggCount:
		return StateCount
	case AggCountDistinct:
		if additive {
			return StateCount
		}
		return StateSet
	case AggSum:
		return StateSum
	default:
		return StateMinMax
	}
}

// GroupStates is a group operator's exported build: every parameter
// group of one part of the input with its partial aggregate, in
// first-seen order, in columnar form. Values appear once, in Lits; the
// columns hold indexes into it. Only the aggregate columns of Kind are
// populated. A Done group's short-circuit fired on the part: its verdict
// is final whatever the other parts hold, so its aggregate columns carry
// zeros — for COUNT-distinct this bounds a group's size by the threshold
// instead of by its value set.
type GroupStates struct {
	Kind StateKind
	Lits []storage.Value
	// Params[j][g] is group g's j-th parameter.
	Params [][]uint32
	Done   []bool
	Count  []int64 // StateCount
	// StateSet: group g's values are SetVals[SetEnd[g-1]:SetEnd[g]].
	SetEnd  []uint32
	SetVals []uint32
	Sum     []float64 // StateSum
	Has     []bool    // StateSum, StateMinMax
	Cur     []uint32  // StateMinMax
}

// Len returns the number of groups.
func (s *GroupStates) Len() int { return len(s.Done) }

// set returns group g's distinct counted values.
func (s *GroupStates) set(g int) []uint32 {
	lo := uint32(0)
	if g > 0 {
		lo = s.SetEnd[g-1]
	}
	return s.SetVals[lo:s.SetEnd[g]]
}

// exportTable assigns dense literal indexes to the dictionary IDs an
// export mentions, in first-use order: index[id] is the position plus one.
type exportTable struct {
	dec   *decoder
	index []uint32
	lits  []storage.Value
}

func (t *exportTable) of(id uint32) uint32 {
	if t.index[id] == 0 {
		t.lits = append(t.lits, t.dec.value(id))
		t.index[id] = uint32(len(t.lits))
	}
	return t.index[id] - 1
}

// export freezes the built groups into their exported form.
func (o *colGroupOp) export(ctx *Ctx, additive bool) *GroupStates {
	if ctx.Col != nil {
		start := time.Now()
		defer func() { o.wall += time.Since(start) }()
	}
	groups, sets := o.agg.states, o.agg.sets
	np, n := o.n.NParams, len(groups)
	tab := &exportTable{dec: newDecoder(ctx.dict), index: make([]uint32, ctx.dict.Len())}
	st := &GroupStates{Kind: o.n.Agg.StateKind(additive), Params: make([][]uint32, np), Done: make([]bool, n)}
	for j := range st.Params {
		col := make([]uint32, n)
		for g := range col {
			col[g] = tab.of(o.agg.groups.Row(g)[j])
		}
		st.Params[j] = col
	}
	for g := range groups {
		st.Done[g] = groups[g].done
	}
	switch st.Kind {
	case StateCount:
		st.Count = make([]int64, n)
		for g, s := range groups {
			if !s.done {
				st.Count[g] = s.n
			}
		}
	case StateSet:
		st.SetEnd = make([]uint32, n)
		for g, s := range groups {
			if !s.done {
				for _, id := range sets[g] {
					st.SetVals = append(st.SetVals, tab.of(id))
				}
			}
			st.SetEnd[g] = uint32(len(st.SetVals))
		}
	case StateSum:
		st.Sum, st.Has = make([]float64, n), make([]bool, n)
		for g, s := range groups {
			if !s.done {
				st.Sum[g], st.Has[g] = s.sum, s.has
			}
		}
	case StateMinMax:
		st.Cur, st.Has = make([]uint32, n), make([]bool, n)
		for g, s := range groups {
			if !s.done && s.has {
				st.Cur[g], st.Has[g] = tab.of(s.cur), true
			}
		}
	}
	st.Lits = tab.lits
	return st
}

// mergeTable interns the parts' literals by equality class, so a value
// shipped as 1 by one part and as 1.0 by another is one parameter, one
// counted value, one extreme — what Value.AppendKey guarantees inside a
// single database's dictionary.
type mergeTable struct {
	ids  map[string]uint32
	lits []storage.Value
	buf  []byte
}

func (t *mergeTable) of(v storage.Value) uint32 {
	t.buf = v.AppendKey(t.buf[:0])
	id, ok := t.ids[string(t.buf)]
	if !ok {
		id = uint32(len(t.lits))
		t.lits = append(t.lits, v)
		t.ids[string(t.buf)] = id
	}
	return id
}

// MergeGroupStates folds the exported states of disjoint parts of one
// FILTER computation's input back into the computation's answer: the
// parameter tuples whose merged aggregate passes. Parts merge in slice
// order (the cluster feeds them in shard order) under the rule the
// operator applies to one stream: a group passes once any part
// short-circuited Done — monotone conditions cannot un-pass — or the
// combined aggregate passes. The partial aggregates combine exactly when
// the parts saw disjoint head tuples of each group, and StateCount
// exports of COUNT-distinct additionally when they saw disjoint counted
// values; the caller vouches for both by asking for additive. The second
// result is the number of distinct groups across all parts.
//
// Every part must be structurally sound — equal column lengths, indexes
// inside Lits — as the operator's export and the wire decoder guarantee.
func MergeGroupStates(agg Aggregate, additive bool, name string, cols []string, parts []*GroupStates) (*storage.Relation, int, error) {
	want, np := agg.StateKind(additive), len(cols)
	tab := &mergeTable{ids: make(map[string]uint32)}
	value := func(id uint32) storage.Value { return tab.lits[id] }
	expect := 0 // at most every part's groups, when no two parts share one
	for _, part := range parts {
		expect += part.Len()
	}
	index := storage.NewIDTable(np) // the merged groups, first-seen order
	index.Grow(expect)
	var (
		groups = make([]groupState, 0, expect)
		seen   = storage.NewIDTable(2) // StateSet: (group, value) pairs counted so far
		pair   = make([]uint32, 2)     // seen's probe buffer
		row    = make([]uint32, np)    // one group's parameters as merged IDs
		xlat   []uint32                // the current part's literal index → merged ID
	)
	for pi, part := range parts {
		if part.Kind != want || len(part.Params) != np {
			return nil, 0, fmt.Errorf("physical: part %d carries state kind %d over %d params, want kind %d over %d",
				pi, part.Kind, len(part.Params), want, np)
		}
		xlat = xlat[:0]
		for _, v := range part.Lits {
			xlat = append(xlat, tab.of(v))
		}
		for g := 0; g < part.Len(); g++ {
			for j, col := range part.Params {
				row[j] = xlat[col[g]]
			}
			gi, fresh := index.Insert(row)
			if fresh {
				groups = append(groups, groupState{})
			}
			m := &groups[gi]
			if m.done {
				continue
			}
			if part.Done[g] {
				m.done = true
				continue
			}
			switch want {
			case StateCount:
				m.n += part.Count[g]
			case StateSet:
				for _, lit := range part.set(g) {
					pair[0], pair[1] = uint32(gi), xlat[lit]
					if _, fresh := seen.Insert(pair); fresh {
						m.n++
					}
				}
			case StateSum:
				m.sum += part.Sum[g]
				m.has = m.has || part.Has[g]
			case StateMinMax:
				if !part.Has[g] {
					break
				}
				if id := xlat[part.Cur[g]]; !m.has || agg.better(value(id), value(m.cur)) {
					m.cur, m.has = id, true
				}
			}
			if agg.shortCircuits() && agg.passes(m, value) {
				m.done = true
			}
		}
	}
	out := storage.NewRelation(name, cols...)
	for gi := range groups {
		if m := &groups[gi]; !m.done && !agg.passes(m, value) {
			continue
		}
		t := make(storage.Tuple, np)
		for j, id := range index.Row(gi) {
			t[j] = value(id)
		}
		out.Insert(t)
	}
	return out, len(groups), nil
}
