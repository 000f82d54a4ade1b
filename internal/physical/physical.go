// Package physical is the unified physical-plan layer of the flock
// system: a small operator IR (scan, hash build/join, anti-join, select,
// project, union, group-filter, materialize) plus a batch-at-a-time pull
// executor over columns of interned value IDs (colops.go). Every evaluation strategy — direct, FILTER-step plans, and
// the §4.4 dynamic strategy — *compiles* to this IR and runs on the one
// executor, so joins stream probe-side through the pipeline instead of
// materializing each intermediate relation. Pipeline breakers exist only
// at hash builds, dedup points, group-by, the Materialize sink, and the
// dynamic strategy's decision barriers (where its "filter now?" policy
// observes cardinalities).
//
// The compiled plans reproduce eval's materializing executor's answers.
// One plan run is one goroutine; a FILTER computation runs in parallel as
// several runs of one plan, one per part of its first parameter (core's
// partitioned path), which is why a run shares nothing mutable with
// another run of the same plan.
package physical

import (
	"fmt"
	"strings"
)

// Kind names a physical operator. The values double as the obs.Op
// strings of the metrics JSON schema.
type Kind string

// The physical operator kinds.
const (
	// KindScan reads a base relation as the pipeline source, applying
	// constant selections, repeated-variable checks, and absorbed
	// semi-join/negation/comparison checks in one pass — or replays a
	// memoized extended answer (ReplayNode).
	KindScan Kind = "scan"
	// KindBuild is the hash-index build on a join's base relation — a
	// pipeline breaker on the build side only.
	KindBuild Kind = "build"
	// KindJoin hash-joins the streamed bindings with a base relation.
	KindJoin Kind = "join"
	// KindAntiJoin drops bindings matching a negated atom.
	KindAntiJoin Kind = "antijoin"
	// KindSelect applies a fully bound arithmetic comparison.
	KindSelect Kind = "select"
	// KindProject projects bindings onto output columns, optionally
	// deduplicating (a pipeline breaker for the seen-set only).
	KindProject Kind = "project"
	// KindUnion concatenates branch pipelines in order.
	KindUnion Kind = "union"
	// KindGroup groups by the parameter prefix and applies the FILTER
	// condition per group (§4.1) — a pipeline breaker.
	KindGroup Kind = "group"
	// KindMaterialize collects the stream: into a storage.Relation at the
	// plan sink (the answer, a FILTER-step result), into a set of ID rows
	// at a dynamic decision barrier.
	KindMaterialize Kind = "materialize"
)

// Node is one operator of a compiled physical plan. Nodes are immutable
// after compilation; executing a Plan instantiates fresh operator state,
// so one compiled plan can run many times.
type Node interface {
	// Kind identifies the operator.
	Kind() Kind
	// Desc carries the operand rendering (atom, comparison, column list).
	Desc() string
	// Columns names the operator's output columns.
	Columns() []string
	// Inputs returns the child nodes (build side first for joins).
	Inputs() []Node
}

// Plan is a compiled physical plan: a root node plus stable preorder
// node IDs (starting at 1) used by EXPLAIN and the metrics schema.
type Plan struct {
	Root  Node
	ids   map[Node]int
	order []Node
}

// NewPlan wraps a compiled node tree, assigning preorder IDs.
func NewPlan(root Node) *Plan {
	p := &Plan{Root: root, ids: make(map[Node]int)}
	p.number(root)
	return p
}

func (p *Plan) number(n Node) {
	if n == nil {
		return
	}
	if _, ok := p.ids[n]; ok {
		return
	}
	p.ids[n] = len(p.order) + 1
	p.order = append(p.order, n)
	for _, in := range n.Inputs() {
		p.number(in)
	}
}

// NodeID returns the node's preorder ID (1-based), or 0 if the node is
// not part of the plan.
func (p *Plan) NodeID(n Node) int { return p.ids[n] }

// Nodes returns the plan's nodes in preorder.
func (p *Plan) Nodes() []Node { return p.order }

// Explain renders the plan as an operator tree, one line per node in the
// form "kind#id desc", with the build side of a join listed first.
func (p *Plan) Explain() string {
	var b strings.Builder
	p.explainNode(&b, p.Root, "", "")
	return strings.TrimRight(b.String(), "\n")
}

func (p *Plan) explainNode(b *strings.Builder, n Node, prefix, childPrefix string) {
	b.WriteString(prefix)
	fmt.Fprintf(b, "%s#%d", n.Kind(), p.ids[n])
	if d := n.Desc(); d != "" {
		b.WriteByte(' ')
		b.WriteString(d)
	}
	b.WriteByte('\n')
	ins := n.Inputs()
	for i, in := range ins {
		if i == len(ins)-1 {
			p.explainNode(b, in, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			p.explainNode(b, in, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}
