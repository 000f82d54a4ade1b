package cluster

import (
	"fmt"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// MaxPartialBody bounds a /partial request or response body (the program
// plus shipped auxiliary relations; the group states, see wire.go).
const MaxPartialBody = 64 << 20

// PartialRequest is one scattered FILTER computation, described exactly as
// core.EvalPartialGroups receives it: the parametrized query (one rule per
// line), the parameter list (names without the $ sigil, in column order),
// the filter condition, and the relations the worker does not hold locally
// — materialized views and earlier FILTER-step results — shipped inline as
// literal rows. Version pins the coordinator's data version; a worker at a
// different version refuses with 409 rather than silently answering over
// other data. Additive tells the worker that the shards are disjoint on
// the column a COUNT-distinct filter counts (see additive), so it answers
// with one count per group instead of the group's value set.
type PartialRequest struct {
	Query    string   `json:"query"`
	Params   []string `json:"params"`
	Filter   string   `json:"filter"`
	Name     string   `json:"name"`
	Version  uint64   `json:"version"`
	Additive bool     `json:"additive,omitempty"`
	Aux      []AuxRel `json:"aux,omitempty"`
}

// AuxRel is one shipped auxiliary relation; rows carry storage literals
// (see storage.Value's Literal/ParseValue round-trip).
type AuxRel struct {
	Name    string     `json:"name"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// Computation is a PartialRequest resolved against a worker's database:
// the arguments core.EvalPartialGroups receives, with the shipped
// auxiliary relations registered in a copy of the database.
type Computation struct {
	DB       *storage.Database
	Params   []datalog.Param
	Query    datalog.Union
	Filter   core.Filter
	Name     string
	Additive bool
}

// Bind resolves the wire request against db — the inverse of the
// coordinator's buildRequest. Every failure is the request's fault (a
// malformed query, filter, or auxiliary row).
func (req *PartialRequest) Bind(db *storage.Database) (*Computation, error) {
	query, err := datalog.ParseUnion(req.Query)
	if err == nil {
		err = query.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("bad query: %v", err)
	}
	spec, err := datalog.ParseFilter(req.Filter)
	if err != nil {
		return nil, fmt.Errorf("bad filter: %v", err)
	}
	filter, err := core.NewFilter(spec, query[0].Head)
	if err != nil {
		return nil, fmt.Errorf("bad filter: %v", err)
	}
	c := &Computation{DB: db, Params: make([]datalog.Param, len(req.Params)), Query: query, Filter: filter,
		Name: req.Name, Additive: req.Additive}
	for i, p := range req.Params {
		c.Params[i] = datalog.Param(p)
	}
	if len(req.Aux) > 0 {
		c.DB = db.Clone()
	}
	for _, aux := range req.Aux {
		rel := storage.NewRelation(aux.Name, aux.Columns...)
		for _, row := range aux.Rows {
			if len(row) != len(aux.Columns) {
				return nil, fmt.Errorf("aux relation %s: row arity %d != %d columns", aux.Name, len(row), len(aux.Columns))
			}
			t := make(storage.Tuple, len(row))
			for j, lit := range row {
				t[j] = storage.ParseValue(lit)
			}
			rel.Insert(t)
		}
		c.DB.Add(rel)
	}
	return c, nil
}
