package physical

import (
	"fmt"
	"strings"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// argSrc says where a check argument's value comes from when a
// (binding, candidate) row pair is scanned.
type argSrc int8

const (
	srcConst argSrc = iota // a constant term
	srcCur                 // column of the streamed binding tuple
	srcBase                // column of the base-relation candidate tuple
)

// argRef resolves one check argument against a row pair.
type argRef struct {
	src argSrc
	pos int
	val storage.Value
}

// checkKind classifies an absorbed per-row check.
type checkKind int8

const (
	checkCmp        checkKind = iota // arithmetic comparison
	checkMember                      // positive atom absorbed as a semi-join
	checkAntiMember                  // negated atom absorbed into the scan
)

// Check is one subgoal absorbed into a scan or join: decided per scanned
// row pair, before the joined row is emitted (the Fig. 9 reducer shape).
type Check struct {
	kind checkKind
	desc string

	// Comparison checks.
	op          datalog.CmpOp
	left, right argRef

	// Membership checks: probe (args...) against the pred relation.
	pred string
	args []argRef
}

// constPos is one constant argument position of a joined atom.
type constPos struct {
	pos int
	val storage.Value
}

// ScanNode is the pipeline source: it reads the first atom's base
// relation in insertion order, keeping tuples that match the constant
// arguments, the repeated-variable equalities, and the absorbed checks,
// and emits the newly bound columns.
type ScanNode struct {
	Pred   string
	atom   string
	arity  int
	consts []constPos
	dup    [][2]int
	checks []*Check
	newPos []int
	cols   []string
}

func (n *ScanNode) Kind() Kind        { return KindScan }
func (n *ScanNode) Columns() []string { return n.cols }
func (n *ScanNode) Inputs() []Node    { return nil }
func (n *ScanNode) Desc() string {
	if len(n.checks) > 0 {
		return fmt.Sprintf("%s (+%d absorbed)", n.atom, len(n.checks))
	}
	return n.atom
}

// UnitNode emits the single empty tuple — the join identity, used when a
// (ground) rule has no positive atoms so its pending subgoals still have
// a stream to filter.
type UnitNode struct{}

func (n *UnitNode) Kind() Kind        { return KindScan }
func (n *UnitNode) Desc() string      { return "unit" }
func (n *UnitNode) Columns() []string { return nil }
func (n *UnitNode) Inputs() []Node    { return nil }

// BuildNode is the hash-index build on a join's base relation (the only
// build-side pipeline breaker). Key columns list constants first (fixed
// key prefix) then the probed positions. The join operator performs the
// build itself; the node exists for the plan tree and per-operator events.
type BuildNode struct {
	Pred    string
	idxCols []int
}

func (n *BuildNode) Kind() Kind        { return KindBuild }
func (n *BuildNode) Columns() []string { return nil }
func (n *BuildNode) Inputs() []Node    { return nil }

func (n *BuildNode) Desc() string {
	keys := make([]string, len(n.idxCols))
	for i, c := range n.idxCols {
		keys[i] = fmt.Sprintf("%d", c)
	}
	return fmt.Sprintf("%s key(%s)", n.Pred, strings.Join(keys, ","))
}

// JoinNode hash-joins the streamed bindings against a base relation,
// with absorbed checks applied before joined rows are emitted. Probe
// batches are range-partitioned across workers; per-worker outputs are
// concatenated in worker order, so the output order is identical at
// every worker count.
type JoinNode struct {
	Input *BuildNode // build side, listed first in Inputs
	Probe Node       // streamed binding side

	Pred     string
	atom     string
	arity    int
	consts   []constPos
	probeCur []int
	probeRel []int
	dup      [][2]int
	checks   []*Check
	newPos   []int
	cols     []string
}

func (n *JoinNode) Kind() Kind        { return KindJoin }
func (n *JoinNode) Columns() []string { return n.cols }
func (n *JoinNode) Inputs() []Node    { return []Node{n.Input, n.Probe} }
func (n *JoinNode) Desc() string {
	if len(n.checks) > 0 {
		return fmt.Sprintf("%s (+%d absorbed)", n.atom, len(n.checks))
	}
	return n.atom
}

// AntiJoinNode drops bindings for which the fully bound negated atom
// holds, via key probes into the base relation.
type AntiJoinNode struct {
	Probe Node

	Pred     string
	atom     string
	arity    int
	srcPos   []int           // cur column per atom position; <0 means constVal
	constVal []storage.Value // constants per atom position
	cols     []string
}

func (n *AntiJoinNode) Kind() Kind        { return KindAntiJoin }
func (n *AntiJoinNode) Desc() string      { return n.atom }
func (n *AntiJoinNode) Columns() []string { return n.cols }
func (n *AntiJoinNode) Inputs() []Node    { return []Node{n.Probe} }

// SelectNode applies a fully bound arithmetic comparison.
type SelectNode struct {
	Probe Node

	desc        string
	op          datalog.CmpOp
	left, right argRef // srcConst or srcCur only
	cols        []string
}

func (n *SelectNode) Kind() Kind        { return KindSelect }
func (n *SelectNode) Desc() string      { return n.desc }
func (n *SelectNode) Columns() []string { return n.cols }
func (n *SelectNode) Inputs() []Node    { return []Node{n.Probe} }

// ProjectNode projects the stream onto output columns; with Dedup it
// keeps the first occurrence of each distinct projected tuple (the only
// state it holds is the seen-key set).
type ProjectNode struct {
	Probe Node

	pos   []int
	cols  []string
	Dedup bool
}

func (n *ProjectNode) Kind() Kind        { return KindProject }
func (n *ProjectNode) Columns() []string { return n.cols }
func (n *ProjectNode) Inputs() []Node    { return []Node{n.Probe} }
func (n *ProjectNode) Desc() string {
	d := strings.Join(n.cols, ",")
	if n.Dedup {
		d += " dedup"
	}
	return d
}

// UnionNode concatenates branch streams in branch order. Branch columns
// may differ in name across rules of a union; the output takes the first
// branch's names (arities must match).
type UnionNode struct {
	Branches []Node
}

// NewUnion builds a union node over the branch pipelines.
func NewUnion(branches []Node) (*UnionNode, error) {
	if len(branches) == 0 {
		return nil, fmt.Errorf("physical: empty union")
	}
	arity := len(branches[0].Columns())
	for _, br := range branches[1:] {
		if len(br.Columns()) != arity {
			return nil, fmt.Errorf("physical: union branches project %d vs %d columns", arity, len(br.Columns()))
		}
	}
	return &UnionNode{Branches: branches}, nil
}

func (n *UnionNode) Kind() Kind        { return KindUnion }
func (n *UnionNode) Desc() string      { return fmt.Sprintf("(%d branches)", len(n.Branches)) }
func (n *UnionNode) Columns() []string { return n.Branches[0].Columns() }
func (n *UnionNode) Inputs() []Node    { return n.Branches }

// GroupNode groups the extended-answer stream by its first NParams
// columns, aggregates each group's distinct head tuples (honoring the
// monotone short-circuit), and emits the passing parameter tuples in
// first-seen group order — or, as the root of an exporting plan (see
// Plan.ExportGroups), every group's partial state. A pipeline breaker,
// but it holds one state per group — not the extended result itself.
type GroupNode struct {
	Probe Node

	Name       string
	NParams    int
	Agg        Aggregate
	filterDesc string
	cols       []string
}

// NewGroup builds the group-filter operator; filterDesc is the FILTER
// condition rendering used in EXPLAIN output and events.
func NewGroup(name string, nParams int, agg Aggregate, filterDesc string, in Node) (*GroupNode, error) {
	cols := in.Columns()
	if nParams < 0 || nParams > len(cols) {
		return nil, fmt.Errorf("physical: group by %d of %d columns", nParams, len(cols))
	}
	if agg.Kind != AggCount && (agg.Col < 0 || nParams+agg.Col >= len(cols)) {
		return nil, fmt.Errorf("physical: aggregate over head column %d of %d", agg.Col, len(cols)-nParams)
	}
	return &GroupNode{
		Probe: in, Name: name, NParams: nParams, Agg: agg,
		filterDesc: filterDesc, cols: append([]string(nil), cols[:nParams]...),
	}, nil
}

func (n *GroupNode) Kind() Kind        { return KindGroup }
func (n *GroupNode) Desc() string      { return fmt.Sprintf("%s [%s]", n.Name, n.filterDesc) }
func (n *GroupNode) Columns() []string { return n.cols }
func (n *GroupNode) Inputs() []Node    { return []Node{n.Probe} }

// MaterializeNode collects the stream into a storage.Relation (set
// semantics, arrival order). As the plan root it is the sink whose
// relation Plan.Run returns; mid-pipeline it is a barrier that runs its
// Hook on the materialized relation (the §4.4 decision site) and
// re-streams the — possibly reduced — result. Register, when set,
// publishes the relation (FILTER-step plans add it to the scratch
// database under the step's name).
type MaterializeNode struct {
	Probe Node

	Name     string
	Hook     Hook
	HookDesc string
	Register func(*storage.Relation) error
	cols     []string
}

// NewMaterialize builds a materialize sink/barrier over in. hookDesc
// annotates the barrier in EXPLAIN output when hook is non-nil.
func NewMaterialize(name string, in Node, hook Hook, hookDesc string, register func(*storage.Relation) error) *MaterializeNode {
	return &MaterializeNode{
		Probe: in, Name: name, Hook: hook, HookDesc: hookDesc,
		Register: register, cols: in.Columns(),
	}
}

func (n *MaterializeNode) Kind() Kind        { return KindMaterialize }
func (n *MaterializeNode) Columns() []string { return n.cols }
func (n *MaterializeNode) Inputs() []Node    { return []Node{n.Probe} }
func (n *MaterializeNode) Desc() string {
	if n.Hook != nil && n.HookDesc != "" {
		return fmt.Sprintf("%s [%s]", n.Name, n.HookDesc)
	}
	return n.Name
}
