package core

import (
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// EvalPartialGroups runs one FILTER computation (§4.1) up to — but not
// through — the filter verdict: the same scan → join → project → group
// pipeline the direct strategy runs, whose group operator exports every
// parameter group's partial state instead of deciding it. This is a
// cluster worker shard's half of a scattered computation, whose states
// the coordinator folds back together. The contract: merging the states
// of a disjoint partition of the input, in any grouping of parts, yields
// exactly the single-node answer set. additive says the partition is
// also disjoint on the column a COUNT-distinct counts (see
// physical.StateCount).
func EvalPartialGroups(db *storage.Database, params []datalog.Param, query datalog.Union,
	filter Filter, name string, additive bool, opts *EvalOptions) (*physical.GroupStates, error) {

	opts = opts.withGate()
	group, err := compileFilteredNode(db, params, query, filter, name, 1)
	if err != nil {
		return nil, err
	}
	// The states are an intermediate, not the flock's answer: no row cap.
	return eval.ExportGroups(db, physical.NewPlan(group), additive, opts.subquery().evalOpts())
}
