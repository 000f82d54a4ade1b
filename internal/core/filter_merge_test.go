package core

import (
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// Tests for the merge of partial group states: the cluster splits each
// group's head tuples across shards, each shard aggregates its part
// independently (with the monotone Done short-circuit live in every
// part), and the coordinator folds the parts with
// physical.MergeGroupStates. Merged states must decide exactly like one
// GroupAcc — the boxed reference's accumulator — fed the whole stream,
// for every aggregate kind.

// mergeFilter builds a Filter over head answer(P, V); the target column V
// sits at head position 1.
func mergeFilter(t *testing.T, agg datalog.AggKind, target string, op datalog.CmpOp, threshold storage.Value) Filter {
	t.Helper()
	head := &datalog.Atom{Pred: "answer", Args: []datalog.Term{datalog.Var("P"), datalog.Var("V")}}
	f, err := NewFilter(datalog.FilterSpec{Agg: agg, Target: target, Op: op, Threshold: threshold}, head)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// splitAndMerge deals heads round-robin over nParts shards of r(G,P,V),
// all in the one group G = "g", exports each shard's partial state with
// EvalPartialGroups over answer(P,V) :- r($g,P,V), folds the parts with
// physical.MergeGroupStates, and reports whether the merged group passes.
func splitAndMerge(t *testing.T, f Filter, heads []storage.Tuple, nParts int) bool {
	t.Helper()
	rule, err := datalog.ParseRule("answer(P,V) :- r($g,P,V)")
	if err != nil {
		t.Fatal(err)
	}
	g := storage.Str("g")
	parts := make([]*physical.GroupStates, nParts)
	for i := range parts {
		r := storage.NewRelation("r", "G", "P", "V")
		for j := i; j < len(heads); j += nParts {
			r.Insert(storage.Tuple{g, heads[j][0], heads[j][1]})
		}
		db := storage.NewDatabase()
		db.Add(r)
		if parts[i], err = EvalPartialGroups(db, []datalog.Param{"g"}, datalog.Union{rule}, f, "flock", false, nil); err != nil {
			t.Fatal(err)
		}
	}
	merged, _, err := physical.MergeGroupStates(f.Aggregate(), false, "flock", []string{"$g"}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return merged.Contains(storage.Tuple{g})
}

// sequential feeds all heads through one accumulator with the same
// short-circuit the sequential group-by applies.
func sequential(f Filter, heads []storage.Tuple) (passes, done bool) {
	acc := f.NewGroup()
	for _, h := range heads {
		if acc.Done() {
			return true, true
		}
		acc.Add(h)
	}
	return acc.Done() || acc.Passes(), acc.Done()
}

func head(p string, v int64) storage.Tuple {
	return storage.Tuple{storage.Str(p), storage.Int(v)}
}

func TestMergeMatchesSequentialPerAggregate(t *testing.T) {
	cases := []struct {
		name   string
		filter Filter
		heads  []storage.Tuple
		want   bool
	}{
		{"count pass", mergeFilter(t, datalog.AggCount, "", datalog.Ge, storage.Int(3)),
			[]storage.Tuple{head("a", 1), head("b", 2), head("c", 3), head("d", 4)}, true},
		{"count fail", mergeFilter(t, datalog.AggCount, "", datalog.Ge, storage.Int(5)),
			[]storage.Tuple{head("a", 1), head("b", 2)}, false},
		{"count distinct dedups across partials", mergeFilter(t, datalog.AggCount, "V", datalog.Ge, storage.Int(3)),
			// Five tuples but only two distinct V values: partials that each
			// see both values must not double-count after the merge.
			[]storage.Tuple{head("a", 1), head("b", 2), head("c", 1), head("d", 2), head("e", 1)}, false},
		{"count distinct pass", mergeFilter(t, datalog.AggCount, "V", datalog.Ge, storage.Int(3)),
			[]storage.Tuple{head("a", 1), head("b", 2), head("c", 3), head("d", 1)}, true},
		{"sum pass", mergeFilter(t, datalog.AggSum, "V", datalog.Ge, storage.Int(10)),
			[]storage.Tuple{head("a", 4), head("b", 4), head("c", 4)}, true},
		{"sum with negative weight", mergeFilter(t, datalog.AggSum, "V", datalog.Ge, storage.Int(10)),
			// The early +12 would short-circuit a naive monotone check; the
			// -100 in another partial must still drag the merged sum down.
			[]storage.Tuple{head("a", 12), head("b", -100), head("c", 1)}, false},
		{"min pass", mergeFilter(t, datalog.AggMin, "V", datalog.Le, storage.Int(2)),
			[]storage.Tuple{head("a", 9), head("b", 1), head("c", 7)}, true},
		{"min fail", mergeFilter(t, datalog.AggMin, "V", datalog.Le, storage.Int(0)),
			[]storage.Tuple{head("a", 9), head("b", 1)}, false},
		{"max pass", mergeFilter(t, datalog.AggMax, "V", datalog.Ge, storage.Int(8)),
			[]storage.Tuple{head("a", 2), head("b", 9), head("c", 1)}, true},
		{"max fail", mergeFilter(t, datalog.AggMax, "V", datalog.Ge, storage.Int(10)),
			[]storage.Tuple{head("a", 2), head("b", 9)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqPass, _ := sequential(tc.filter, tc.heads)
			if seqPass != tc.want {
				t.Fatalf("sequential: passes=%v, want %v", seqPass, tc.want)
			}
			for parts := 1; parts <= 4; parts++ {
				if mergedPass := splitAndMerge(t, tc.filter, tc.heads, parts); mergedPass != tc.want {
					t.Errorf("%d partials: passes=%v, want %v", parts, mergedPass, tc.want)
				}
			}
		})
	}
}

// TestMergeDoneShortCircuit pins the Done interaction: once any partial
// short-circuits on a monotone condition, the merged group passes without
// consulting the other partials (more tuples cannot un-pass it); SUM never
// short-circuits.
func TestMergeDoneShortCircuit(t *testing.T) {
	f := mergeFilter(t, datalog.AggCount, "", datalog.Ge, storage.Int(2))
	heads := []storage.Tuple{head("a", 1), head("b", 2), head("c", 3), head("d", 4)}

	seqPass, seqDone := sequential(f, heads)
	if !seqPass || !seqDone {
		t.Fatalf("sequential: passes=%v done=%v, want both true", seqPass, seqDone)
	}
	for parts := 2; parts <= 4; parts++ {
		if !splitAndMerge(t, f, heads, parts) {
			t.Errorf("%d partials: merged group fails, want it to pass", parts)
		}
	}

	// SUM must never short-circuit: a negative weight later in the stream
	// (or in another shard's part) can drag the sum back below the
	// threshold, so a mid-stream Done verdict would depend on tuple order
	// and the partition.
	sum := mergeFilter(t, datalog.AggSum, "V", datalog.Ge, storage.Int(5))
	acc := sum.NewGroup()
	acc.Add(head("a", 10))
	if acc.Done() {
		t.Error("SUM must not report Done: a later negative weight could still fail it")
	}
	acc2 := sum.NewGroup()
	acc2.Add(head("b", -1))
	acc2.Add(head("c", 20))
	if acc2.Done() {
		t.Error("SUM with a negative weight must not report Done")
	}
	if !splitAndMerge(t, sum, []storage.Tuple{head("b", -1), head("c", 20), head("a", 10)}, 2) {
		t.Error("merged sum 29 >= 5 should pass")
	}
}

// TestSumOrderAndWorkerInvariance is the regression for the unsound SUM
// short-circuit: a group whose early tuples pass the threshold but whose
// full sum fails must be rejected regardless of tuple order. Before the
// fix, sequential evaluation short-circuited on the early +12 and
// accepted the group.
func TestSumOrderAndWorkerInvariance(t *testing.T) {
	f := mergeFilter(t, datalog.AggSum, "V", datalog.Ge, storage.Int(10))
	orders := [][]storage.Tuple{
		{head("a", 12), head("b", -100), head("c", 1)},
		{head("b", -100), head("a", 12), head("c", 1)},
		{head("c", 1), head("a", 12), head("b", -100)},
	}
	for oi, heads := range orders {
		// Interleave filler groups, each passing on its own, between
		// group "g"'s tuples.
		ext := storage.NewRelation("ext", "P", "HP", "V")
		for i, h := range heads {
			for j := 0; j < 200; j++ {
				p := storage.Int(int64(i*200 + j))
				ext.Insert(storage.Tuple{p, p, storage.Int(50)})
			}
			ext.Insert(storage.Tuple{storage.Str("g"), h[0], h[1]})
		}
		got, _ := groupAndFilter(ext, 1, f, "out")
		if got.Contains(storage.Tuple{storage.Str("g")}) {
			t.Errorf("order %d: group with true sum -87 accepted", oi)
		}
		if got.Len() != 600 {
			t.Errorf("order %d: %d filler groups pass, want 600", oi, got.Len())
		}
	}
}
