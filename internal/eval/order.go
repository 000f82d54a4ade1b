package eval

import (
	"fmt"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// OrderStrategy selects the join order for a rule's positive atoms.
type OrderStrategy int

const (
	// OrderGreedy starts from the smallest base relation and repeatedly
	// joins the connected atom with the smallest base relation, falling
	// back to the smallest disconnected atom (a cross product) only when
	// nothing is connected. This is the default.
	OrderGreedy OrderStrategy = iota
	// OrderBodyOrder joins atoms in the order they appear in the rule body,
	// emulating a naive left-to-right evaluator (used as the "unoptimized
	// SQL" baseline of §1.3).
	OrderBodyOrder
	// OrderExhaustive enumerates all permutations of up to a small number
	// of atoms, picking the one whose estimated intermediate sizes are
	// smallest under the independence cost model. Falls back to greedy for
	// wide rules.
	OrderExhaustive
)

// String names the strategy.
func (s OrderStrategy) String() string {
	switch s {
	case OrderGreedy:
		return "greedy"
	case OrderBodyOrder:
		return "body-order"
	case OrderExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("OrderStrategy(%d)", int(s))
	}
}

// exhaustiveLimit bounds the permutation search; 8! = 40320 orders is the
// most we enumerate before falling back to greedy.
const exhaustiveLimit = 8

// JoinOrder computes the order in which to join r's positive atoms,
// returned as indices into r.PositiveAtoms().
func JoinOrder(db *storage.Database, r *datalog.Rule, strategy OrderStrategy) ([]int, error) {
	atoms := r.PositiveAtoms()
	switch strategy {
	case OrderBodyOrder:
		out := make([]int, len(atoms))
		for i := range out {
			out[i] = i
		}
		return out, nil
	case OrderGreedy:
		return greedyOrder(db, atoms)
	case OrderExhaustive:
		if len(atoms) > exhaustiveLimit {
			return greedyOrder(db, atoms)
		}
		return exhaustiveOrder(db, atoms)
	default:
		return nil, fmt.Errorf("eval: unknown order strategy %d", int(strategy))
	}
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

func greedyOrder(db *storage.Database, atoms []*datalog.Atom) ([]int, error) {
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

// exhaustiveOrder scores every permutation with estimateOrderCost and
// returns the cheapest; ties break toward the lexicographically first
// order, keeping results deterministic.
func exhaustiveOrder(db *storage.Database, atoms []*datalog.Atom) ([]int, error) {
	n := len(atoms)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var best []int
	bestCost := -1.0
	var recurse func(k int)
	recurse = func(k int) {
		if k == n {
			cost := estimateOrderCost(db, atoms, perm)
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				best = append(best[:0], perm...)
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			recurse(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	// Validate relations up front so the cost function can assume presence.
	for _, a := range atoms {
		if _, err := db.Source(a.Pred); err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
	}
	recurse(0)
	if best == nil { // zero atoms
		return []int{}, nil
	}
	return best, nil
}

// estimateOrderCost estimates the sum of intermediate-result sizes of a
// join order under the classic System-R independence assumptions: joining
// on a shared column divides the cross-product size by the larger distinct
// count of that column on either side.
func estimateOrderCost(db *storage.Database, atoms []*datalog.Atom, order []int) float64 {
	type side struct {
		rows     float64
		distinct map[string]float64
	}
	cur := side{rows: 1, distinct: map[string]float64{}}
	total := 0.0
	for _, i := range order {
		rel := db.MustSource(atoms[i].Pred)
		next := side{rows: cur.rows * float64(rel.Len()), distinct: map[string]float64{}}
		for col := range cur.distinct {
			next.distinct[col] = cur.distinct[col]
		}
		for _, t := range atoms[i].Args {
			col, ok := termColumn(t)
			if !ok {
				continue
			}
			d := float64(distinctOf(rel, atoms[i], t))
			if d < 1 {
				d = 1
			}
			if prev, bound := cur.distinct[col]; bound {
				sel := prev
				if d > sel {
					sel = d
				}
				next.rows /= sel
				if d < prev {
					next.distinct[col] = d
				}
			} else {
				next.distinct[col] = d
			}
		}
		if next.rows < 1 {
			next.rows = 1
		}
		total += next.rows
		cur = next
	}
	return total
}

// distinctOf returns the distinct count of the base-relation column where
// term t appears in atom a (first occurrence).
func distinctOf(rel storage.RelationSource, a *datalog.Atom, t datalog.Term) int {
	for i, u := range a.Args {
		if u == t {
			// An unreadable disk source has no statistics; the read error
			// itself surfaces when the plan opens the relation.
			if d, err := rel.DistinctCount(rel.Columns()[i]); err == nil {
				return d
			}
			break
		}
	}
	return rel.Len()
}
