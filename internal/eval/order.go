package eval

import (
	"fmt"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// JoinOrder computes the order in which to join r's positive atoms,
// returned as indices into r.PositiveAtoms(). It starts from the smallest
// base relation and repeatedly joins the connected atom with the smallest
// base relation, falling back to the smallest disconnected atom (a cross
// product) only when nothing is connected.
func JoinOrder(db *storage.Database, r *datalog.Rule) ([]int, error) {
	atoms := r.PositiveAtoms()
	sizes := make([]int, len(atoms))
	for i, a := range atoms {
		src, err := db.Source(a.Pred)
		if err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
		sizes[i] = src.Len()
	}
	used := make([]bool, len(atoms))
	bound := make(map[string]struct{})
	order := make([]int, 0, len(atoms))
	for len(order) < len(atoms) {
		best, bestConnected := -1, false
		for i := range atoms {
			if used[i] {
				continue
			}
			connected := len(order) == 0 // the first atom counts as connected
			if !connected {
				for col := range atomTermCols(atoms[i]) {
					if _, ok := bound[col]; ok {
						connected = true
						break
					}
				}
			}
			switch {
			case best < 0,
				connected && !bestConnected,
				connected == bestConnected && sizes[i] < sizes[best]:
				best, bestConnected = i, connected
			}
		}
		used[best] = true
		order = append(order, best)
		for col := range atomTermCols(atoms[best]) {
			bound[col] = struct{}{}
		}
	}
	return order, nil
}

// atomTermCols returns the column names bound by the atom's variable and
// parameter arguments.
func atomTermCols(a *datalog.Atom) map[string]struct{} {
	out := make(map[string]struct{}, len(a.Args))
	for _, t := range a.Args {
		if col, ok := termColumn(t); ok {
			out[col] = struct{}{}
		}
	}
	return out
}
