package storage_test

import (
	"cmp"
	"strings"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// FuzzIDOrder checks the dictionary's order claim, on which the executor
// decides comparisons between IDs: the input's comma-separated fields are
// parsed as CSV values (ints, floats, NaN, strings, NULL) into a
// relation, and for every pair of IDs below the built dictionary's
// OrderExactLen and every comparison operator, comparing the IDs as
// integers must give the verdict CmpOp.Eval gives on the decoded values
// and on the stored values those IDs stand for.
func FuzzIDOrder(f *testing.F) {
	f.Add("3,1,2.5,-0.5,a,NULL,b,2")
	f.Add("1,2.0,2,0.5,-7,zz")
	f.Add("9007199254740993,9007199254740992.0,9007199254740992")
	f.Add("NaN,1,2")
	f.Fuzz(func(t *testing.T, fields string) {
		rel := storage.NewRelation("r", "V")
		for i, s := range strings.Split(fields, ",") {
			if i == 64 { // the pair loop below is quadratic
				break
			}
			rel.InsertValues(storage.ParseValue(s))
		}
		db := storage.NewDatabase()
		db.Add(rel)
		d, err := storage.BuildDict(db)
		if err != nil {
			t.Fatal(err)
		}
		exact := d.OrderExactLen()
		if exact < 1 || int(exact) > d.Len() {
			t.Fatalf("OrderExactLen = %d of %d IDs", exact, d.Len())
		}
		stored := append(rel.Tuples(), storage.Tuple{storage.Null()})
		for _, x := range stored {
			for _, y := range stored {
				a, _ := d.Lookup(x[0])
				b, _ := d.Lookup(y[0])
				if a >= exact || b >= exact {
					continue
				}
				c := cmp.Compare(a, b)
				for op := datalog.Lt; op <= datalog.Ne; op++ {
					got := op.Accepts(c)
					if want := op.Eval(d.Value(a), d.Value(b)); got != want {
						t.Fatalf("IDs %d %s %d = %v, decoded %v %s %v = %v", a, op, b, got, d.Value(a), op, d.Value(b), want)
					}
					if want := op.Eval(x[0], y[0]); got != want {
						t.Fatalf("IDs %d %s %d = %v, stored %v %s %v = %v", a, op, b, got, x[0], op, y[0], want)
					}
				}
			}
		}
	})
}
