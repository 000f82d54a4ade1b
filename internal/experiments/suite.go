package experiments

import (
	"fmt"
	"sort"
)

// Experiment is one entry of the reproduction suite.
type Experiment struct {
	// ID is the experiment identifier ("E1".."E10").
	ID string
	// Artifact names the paper figure/claim reproduced.
	Artifact string
	// Run executes the experiment at the given configuration.
	Run func(Config) (*Table, error)
}

// Suite returns the full experiment list, in order.
func Suite() []Experiment {
	return []Experiment{
		{"E1", "Fig. 1 + §1.3 20x claim", E1},
		{"E2", "Fig. 2", E2},
		{"E3", "Figs. 3 & 5", E3},
		{"E4", "Fig. 4 + §3.4", E4},
		{"E5", "Figs. 6 & 7", E5},
		{"E6", "Figs. 8 & 9 + Ex. 4.4", E6},
		{"E7", "Fig. 10 + §5", E7},
		{"E8", "Ex. 3.2 enumeration", E8},
		{"E9", "footnote 2 itemset sequence", E9},
		{"E10", "§4.4 statistics accuracy", E10},
	}
}

// ByID returns the named experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Suite() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Suite() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}
