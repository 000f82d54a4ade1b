package eval

import (
	"sync"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

func TestUnionPropagatesErrors(t *testing.T) {
	db := storage.NewDatabase()
	db.Add(storage.NewRelation("r", "A"))
	u, err := datalog.ParseUnion(`
		answer(A) :- r(A) AND missing(A,$x)
		answer(A) :- r(A) AND r($x)`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = EvalUnion(db, u, func(rule *datalog.Rule) []datalog.Term {
		return rule.Head.Args
	}, &Options{Exec: ExecMaterialize})
	if err == nil {
		t.Error("missing relation in one branch should fail the union")
	}
}

// TestConcurrentIndexBuild hammers lazy index construction from many
// goroutines; run with -race to verify the locking.
func TestConcurrentIndexBuild(t *testing.T) {
	r := storage.NewRelation("r", "A", "B", "C")
	for i := 0; i < 5_000; i++ {
		r.InsertValues(storage.Int(int64(i%97)), storage.Int(int64(i%31)), storage.Int(int64(i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				cols := []int{(g + k) % 3}
				ix := r.Index(cols)
				if got, _ := ix.Lookup(storage.Tuple{storage.Int(0)}, nil); len(got) == 0 {
					t.Error("empty index")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
