package core

import (
	"fmt"
	"reflect"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/physical"
	"queryflocks/internal/storage"
)

// TestEvalPartialGroupsDeterministic: the worker half must return the
// same states, in the same order, across repeated runs and worker counts,
// and the merged relation must match the local evalFiltered answer bit
// for bit. (The merge itself is pinned per aggregate in internal/physical.)
func TestEvalPartialGroupsDeterministic(t *testing.T) {
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "b", "i")
	for b := 0; b < 6; b++ {
		for i := 0; i <= b; i++ {
			r.Insert(storage.Tuple{storage.Int(int64(b)), storage.Int(int64(i))})
		}
	}
	db.Add(r)

	fl := MustParse("QUERY:\nanswer(B) :- r(B,$1)\nFILTER:\nCOUNT(answer.B) >= 1\n")
	want, err := fl.Eval(db, nil)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}

	var first *physical.GroupStates
	for run := 0; run < 3; run++ {
		states, err := EvalPartialGroups(db, fl.Params, fl.Query, fl.Filter, "flock", false, &EvalOptions{Workers: 1 + run})
		if err != nil {
			t.Fatalf("EvalPartialGroups: %v", err)
		}
		if run == 0 {
			first = states
			continue
		}
		if !reflect.DeepEqual(states, first) {
			t.Fatalf("run %d states differ:\n%v\nvs\n%v", run, states, first)
		}
	}

	got, _, err := physical.MergeGroupStates(fl.Filter.Aggregate(), false, "flock", fl.ParamColumns(), []*physical.GroupStates{first})
	if err != nil {
		t.Fatalf("MergeGroupStates: %v", err)
	}
	if !got.Equal(want) {
		t.Errorf("merged answer differs from local:\n%v\nvs\n%v", got, want)
	}
}

// TestEvalPartialGroupsRejectsInfinite mirrors evalFiltered's guard.
func TestEvalPartialGroupsRejectsInfinite(t *testing.T) {
	db := storage.NewDatabase()
	db.Add(storage.NewRelation("r", "b", "i"))
	fl := MustParse("QUERY:\nanswer(B) :- r(B,$1)\nFILTER:\nCOUNT(answer.B) >= 0\n")
	if _, err := EvalPartialGroups(db, fl.Params, fl.Query, fl.Filter, "flock", false, nil); err == nil {
		t.Error("expected the infinite-answer guard to fire")
	}
}

// TestFilterEvalHookSeesDirectEval: the cluster hook must intercept the
// direct strategy's FILTER computation, and its relation must be returned
// unchanged; handled=false must fall back to the local path.
func TestFilterEvalHookSeesDirectEval(t *testing.T) {
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "b", "i")
	for b := 0; b < 4; b++ {
		for i := 0; i < 3; i++ {
			r.Insert(storage.Tuple{storage.Int(int64(b)), storage.Int(int64(i))})
		}
	}
	db.Add(r)
	fl := MustParse("QUERY:\nanswer(B) :- r(B,$1)\nFILTER:\nCOUNT(answer.B) >= 2\n")
	want, err := fl.Eval(db, nil)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}

	calls := 0
	hook := func(hdb *storage.Database, params []datalog.Param, query datalog.Union,
		filter Filter, name string, opts *EvalOptions) (*storage.Relation, bool, error) {
		calls++
		states, err := EvalPartialGroups(hdb, params, query, filter, name, false, opts)
		if err != nil {
			return nil, true, err
		}
		cols := make([]string, len(params))
		for i, p := range params {
			cols[i] = "$" + string(p)
		}
		rel, _, err := physical.MergeGroupStates(filter.Aggregate(), false, name, cols, []*physical.GroupStates{states})
		return rel, true, err
	}
	got, err := fl.Eval(db, &EvalOptions{FilterEval: hook})
	if err != nil {
		t.Fatalf("Eval with hook: %v", err)
	}
	if calls != 1 {
		t.Fatalf("hook calls = %d, want 1", calls)
	}
	if !got.Equal(want) {
		t.Errorf("hooked answer differs:\n%v\nvs\n%v", got, want)
	}

	// A declining hook must leave the local answer untouched.
	declined, err := fl.Eval(db, &EvalOptions{
		FilterEval: func(*storage.Database, []datalog.Param, datalog.Union, Filter, string, *EvalOptions) (*storage.Relation, bool, error) {
			return nil, false, nil
		},
	})
	if err != nil {
		t.Fatalf("Eval with declining hook: %v", err)
	}
	if !declined.Equal(want) {
		t.Error("declining hook changed the answer")
	}
}

// TestFilterEvalHookErrorPropagates: a hook error must abort evaluation.
func TestFilterEvalHookErrorPropagates(t *testing.T) {
	db := storage.NewDatabase()
	db.Add(storage.NewRelation("r", "b", "i"))
	fl := MustParse("QUERY:\nanswer(B) :- r(B,$1)\nFILTER:\nCOUNT(answer.B) >= 2\n")
	wantErr := fmt.Errorf("shard 1 unreachable")
	_, err := fl.Eval(db, &EvalOptions{
		FilterEval: func(*storage.Database, []datalog.Param, datalog.Union, Filter, string, *EvalOptions) (*storage.Relation, bool, error) {
			return nil, true, wantErr
		},
	})
	if err == nil || err.Error() != wantErr.Error() {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
}
