package physical

import (
	"fmt"
	"strings"
	"time"

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
	checkPart                        // the row's part of a partitioned plan
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

	// Part checks: the base column left, split into parts runs.
	parts int
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
// with absorbed checks applied before joined rows are emitted, binding
// rows in order and each row's matches in base insertion order.
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

// MaterializeNode is the plan's sink: it collects the stream into a
// storage.Relation (set semantics, arrival order), the relation Plan.Run
// returns. Register, when set, publishes the relation (FILTER-step plans
// add it to the scratch database under the step's name).
type MaterializeNode struct {
	Probe Node

	Name     string
	Register func(*storage.Relation) error
	cols     []string
}

// NewMaterialize builds the materialize sink over in.
func NewMaterialize(name string, in Node, register func(*storage.Relation) error) *MaterializeNode {
	return &MaterializeNode{Probe: in, Name: name, Register: register, cols: in.Columns()}
}

func (n *MaterializeNode) Kind() Kind        { return KindMaterialize }
func (n *MaterializeNode) Desc() string      { return n.Name }
func (n *MaterializeNode) Columns() []string { return n.cols }
func (n *MaterializeNode) Inputs() []Node    { return []Node{n.Probe} }

// Barrier specifies one §4.4 decision barrier. The mechanism is the
// operator's: it buffers the intermediate relation, counts its rows and
// distinct parameter assignments, and can reduce it to the assignments
// that pass Agg — all on value IDs, which never leave this package. The
// policy is the caller's two callbacks.
type Barrier struct {
	// Desc annotates the barrier in EXPLAIN output.
	Desc string
	// ParamPos and HeadPos locate the bound parameters and the rule's head
	// columns among the barrier's columns; the subquery joined so far,
	// with that head, is the FILTER step a reduction applies (§3.1).
	ParamPos, HeadPos []int
	// Agg is the flock's FILTER condition.
	Agg Aggregate
	// Decide is asked once, when the input is buffered: the relation has
	// rows tuples over assigns parameter assignments — filter it?
	Decide func(rows, assigns int) bool
	// Record is told what came of it, after any reduction.
	Record func(BarrierOutcome)
}

// BarrierOutcome is what one decision barrier observed and did.
type BarrierOutcome struct {
	// ID is the barrier's plan-node ID.
	ID int
	// Rows and Assigns are the buffered relation's tuple count and
	// distinct parameter assignments — what Decide was asked about.
	Rows, Assigns int
	// Filtered reports that the reduction ran; RowsAfter and AssignsAfter
	// describe what the barrier re-emits (the input's figures otherwise).
	Filtered                bool
	RowsAfter, AssignsAfter int
	// Wall is the time from the end of buffering to here — counting,
	// deciding, reducing; zero when the run collects no events.
	Wall time.Duration
}

// BarrierNode is a mid-pipeline pipeline breaker of the dynamic strategy:
// it buffers its input as a set, puts its Spec's decision, and re-streams
// the — possibly reduced — rows in arrival order. To EXPLAIN and the
// metrics schema it is a materialize operator.
type BarrierNode struct {
	Probe Node

	Name string
	Spec *Barrier
	cols []string
}

// NewBarrier builds a decision barrier over in.
func NewBarrier(name string, in Node, spec *Barrier) *BarrierNode {
	return &BarrierNode{Probe: in, Name: name, Spec: spec, cols: in.Columns()}
}

func (n *BarrierNode) Kind() Kind        { return KindMaterialize }
func (n *BarrierNode) Columns() []string { return n.cols }
func (n *BarrierNode) Inputs() []Node    { return []Node{n.Probe} }
func (n *BarrierNode) Desc() string {
	if n.Spec.Desc != "" {
		return fmt.Sprintf("%s [%s]", n.Name, n.Spec.Desc)
	}
	return n.Name
}
