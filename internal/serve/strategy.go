package serve

import (
	"fmt"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/planner"
	"queryflocks/internal/storage"
)

// strategy is one row of the plan stage's table. The paper's direct,
// static (§4.2–4.3) and dynamic (§4.4) evaluation are interchangeable
// plans for the same flock, so choosing one is a name handed to the one
// executor; the row says what that name needs from the other stages.
type strategy struct {
	name string
	// plans: executes a prebuilt §4.2 plan (built by Plan, kept in the
	// plan cache).
	plans bool
	// memo: FILTER computations route through the engine's group-by, so
	// they may use the candidate-subquery memo and, on a coordinator,
	// scatter to the shards. naive is the definitional oracle (it must
	// not share state or machinery with what it checks) and dynamic
	// re-decides its plan from observed sizes mid-run, so both stay
	// memo-free and coordinator-local.
	memo bool
	// side: needs side input (Side) only some front-ends can supply, so
	// the served entry points and the REPL's \strategy do not offer it.
	side bool
}

var strategies = []strategy{
	{name: "direct", memo: true},
	{name: "naive"},
	{name: "static", plans: true, memo: true},
	{name: "exhaustive", plans: true, memo: true},
	{name: "levelwise", plans: true, memo: true},
	{name: "cascade", plans: true, memo: true, side: true},
	{name: "dynamic"},
	{name: "plan", plans: true, memo: true, side: true},
}

// Side is the side input of the strategies that need one.
type Side struct {
	// Depth is the cascade strategy's prefix depth (Fig. 7).
	Depth int
	// Plan is the plan strategy's FILTER-step plan (Fig. 5 notation).
	Plan *datalog.PlanSpec
}

// lookupStrategy resolves a strategy name ("" = direct). A served request
// may name only the side-input-free strategies.
func lookupStrategy(name string, served bool) (strategy, error) {
	if name == "" {
		name = "direct"
	}
	for _, st := range strategies {
		if st.name == name && !(served && st.side) {
			return st, nil
		}
	}
	return strategy{}, fmt.Errorf("unknown strategy %q", name)
}

// Strategies lists the side-input-free strategy names, in table order:
// the set flockd accepts and the REPL's \strategy offers.
func Strategies() []string {
	var names []string
	for _, st := range strategies {
		if !st.side {
			names = append(names, st.name)
		}
	}
	return names
}

// Plan derives the §4.2 plan a plan-executing strategy runs; it returns
// nil for the strategies that execute none.
func Plan(name string, f *core.Flock, db *storage.Database, side Side) (*core.Plan, error) {
	switch name {
	case "static":
		return planner.PlanStatic(f, planner.NewEstimator(db), nil)
	case "exhaustive":
		return planner.PlanExhaustive(f, planner.NewEstimator(db))
	case "levelwise":
		return planner.PlanLevelwise(f, 0)
	case "cascade":
		return planner.PlanCascade(f, side.Depth)
	case "plan":
		if side.Plan == nil {
			return nil, fmt.Errorf("strategy plan needs a FILTER-step plan (flockql -plan FILE)")
		}
		return core.PlanFromSpec(f, side.Plan)
	}
	return nil, nil
}
