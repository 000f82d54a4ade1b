package planner

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// cmpFlock pairs two items of a basket under one comparison operator,
// the shape of the paper's market-basket flocks (Fig. 2): the comparison
// is absorbed into the join and decided on the two items' IDs.
const cmpFlock = "QUERY:\nanswer(K) :- r(K,$1) AND r(K,$2) AND $1 %s $2\nFILTER:\nCOUNT(answer.K) >= 2\n"

// Operands of the comparison sweep: null, ints, floats (Float(2) is
// Equal to Int(2) and shares its class), and strings. cmpLate are values
// first seen after the dictionary was built: Float(7) hits Int(7)'s
// class, the rest append IDs past the order-exact prefix.
var (
	cmpBuilt = []storage.Value{storage.Null(), storage.Int(-3), storage.Int(0), storage.Int(2), storage.Float(2),
		storage.Float(2.5), storage.Float(-0.5), storage.Int(7), storage.Str("a"), storage.Str("b")}
	cmpLate = []storage.Value{storage.Str("zz"), storage.Float(1.5), storage.Int(-10), storage.Str("0"),
		storage.Int(100), storage.Float(7), storage.Float(2.25)}
)

// cmpBaskets returns n baskets numbered from k0, each holding four values
// drawn from pool.
func cmpBaskets(rng *rand.Rand, k0, n int, pool []storage.Value) []storage.Tuple {
	var rows []storage.Tuple
	for k := k0; k < k0+n; k++ {
		for j := 0; j < 4; j++ {
			rows = append(rows, storage.Tuple{storage.Int(int64(k)), pool[rng.Intn(len(pool))]})
		}
	}
	return rows
}

func cmpDB(rows ...[]storage.Tuple) *storage.Database {
	r := storage.NewRelation("r", "K", "V")
	for _, part := range rows {
		for _, t := range part {
			r.Insert(t)
		}
	}
	db := storage.NewDatabase()
	db.Add(r)
	return db
}

// assertCmpSweep runs every comparison operator's flock under direct,
// static and dynamic at workers 1 and 8 and checks each answer against
// the naive evaluator over the same data.
func assertCmpSweep(t *testing.T, db, naiveDB *storage.Database) {
	t.Helper()
	for op := datalog.Lt; op <= datalog.Ne; op++ {
		f := core.MustParse(fmt.Sprintf(cmpFlock, op))
		naive, err := f.EvalNaive(naiveDB, nil)
		if err != nil {
			t.Fatal(err)
		}
		if naive.Len() == 0 {
			t.Fatalf("%s: empty oracle answer proves nothing", op)
		}
		for vname, run := range engineVariants(f) {
			for _, w := range []int{1, 8} {
				got, err := run(db, w, nil)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", op, vname, w, err)
				}
				if !got.rel.Equal(naive) {
					t.Fatalf("$1 %s $2 %s workers=%d differs from the naive evaluator\ngot:\n%s\nnaive:\n%s",
						op, vname, w, got.rel.Dump(), naive.Dump())
				}
			}
		}
	}
}

// idsPastExact reports how many of vals have IDs at or past the dictionary's
// order-exact length, failing on a value the dictionary has not seen.
func idsPastExact(t *testing.T, d *storage.Dict, vals []storage.Value) int {
	t.Helper()
	past := 0
	for _, v := range vals {
		id, ok := d.Lookup(v)
		if !ok {
			t.Fatalf("%v was never interned", v)
		}
		if id >= d.OrderExactLen() {
			past++
		}
	}
	return past
}

// TestComparisonSweepAcrossOrderedBoundary checks the comparisons decided
// on dictionary IDs against the naive evaluator for all six operators
// over null, Int, Float, cross-kind and string operands: with every ID in
// the order-exact prefix, with values interned after the build (a memory
// database whose dictionary took later Interns, and the disk engine after
// a mutation adds values its persisted DICT lacks), and with a domain
// whose dictionary has no order-exact prefix at all.
func TestComparisonSweepAcrossOrderedBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	built := cmpBaskets(rng, 0, 24, cmpBuilt)
	late := append(cmpBaskets(rng, 24, 8, cmpLate), cmpBaskets(rng, 0, 24, append(cmpLate, cmpBuilt...))...)

	t.Run("ordered", func(t *testing.T) {
		db := cmpDB(built)
		d, err := db.Dict()
		if err != nil {
			t.Fatal(err)
		}
		if n := idsPastExact(t, d, cmpBuilt); n != 0 {
			t.Fatalf("%d built values past the order-exact prefix", n)
		}
		assertCmpSweep(t, db, db)
	})

	t.Run("interned after the build", func(t *testing.T) {
		base := cmpDB(built)
		d, err := base.Dict()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range cmpLate {
			d.Intern(v)
		}
		db := base.Clone() // shares the dictionary
		db.Add(cmpDB(built, late).MustRelation("r"))
		if n := idsPastExact(t, d, cmpLate); n != len(cmpLate)-1 {
			t.Fatalf("%d late values past the order-exact prefix, want %d", n, len(cmpLate)-1)
		}
		assertCmpSweep(t, db, db)
	})

	t.Run("disk after mutate", func(t *testing.T) {
		dir := t.TempDir()
		if err := storage.CreateDir(dir, cmpDB(built)); err != nil {
			t.Fatal(err)
		}
		diskDB, _, err := storage.OpenDir(dir, storage.EngineDisk)
		if err != nil {
			t.Fatal(err)
		}
		next, _, err := diskDB.MustSource("r").(*storage.DiskRelation).WithDelta(late)
		if err != nil {
			t.Fatal(err)
		}
		mutated := diskDB.Clone()
		mutated.AddSource(next)
		assertCmpSweep(t, mutated, cmpDB(built, late))
		d, err := mutated.Dict()
		if err != nil {
			t.Fatal(err)
		}
		if n := idsPastExact(t, d, cmpLate); n != len(cmpLate)-1 {
			t.Fatalf("%d mutated values past the order-exact prefix, want %d", n, len(cmpLate)-1)
		}
	})

	t.Run("fallback", func(t *testing.T) {
		// Every extra basket holds a NaN, which compares equal to every
		// number, and Int(2^63-1) and Float(2^63), which compare equal.
		extra := cmpBaskets(rng, 24, 8, cmpBuilt)
		for k := int64(24); k < 32; k++ {
			for _, v := range []storage.Value{storage.Float(math.NaN()), storage.Int(math.MaxInt64), storage.Float(1 << 63)} {
				extra = append(extra, storage.Tuple{storage.Int(k), v})
			}
		}
		db := cmpDB(built, extra)
		d, err := db.Dict()
		if err != nil {
			t.Fatal(err)
		}
		if d.OrderExactLen() != 1 {
			t.Fatalf("OrderExactLen = %d over a domain with NaN, want 1", d.OrderExactLen())
		}
		assertCmpSweep(t, db, db)
	})
}

// TestOrderExactnessRegression is the regression for the dictionary's
// order claim. Int(2^63-1) and Float(2^63) are distinct classes that
// Value.Compare calls equal (the int rounds to 2^63), and a NaN compares
// equal to every number, so no basket pairs either with anything under
// $1 < $2 beyond what the naive evaluator admits. A dictionary that
// claimed these IDs order-exact would answer extra pairs.
func TestOrderExactnessRegression(t *testing.T) {
	for name, vals := range map[string][]storage.Value{
		"int past 2^53": {storage.Int(math.MaxInt64), storage.Float(1 << 63), storage.Int(5)},
		"nan":           {storage.Int(1), storage.Float(math.NaN()), storage.Int(2)},
	} {
		t.Run(name, func(t *testing.T) {
			var rows []storage.Tuple
			for _, v := range vals {
				rows = append(rows, storage.Tuple{storage.Int(1), v}, storage.Tuple{storage.Int(2), v})
			}
			db := cmpDB(rows)
			f := core.MustParse(fmt.Sprintf(cmpFlock, datalog.Lt))
			naive, err := f.EvalNaive(db, nil)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := storage.CreateDir(dir, db); err != nil {
				t.Fatal(err)
			}
			diskDB, _, err := storage.OpenDir(dir, storage.EngineDisk)
			if err != nil {
				t.Fatal(err)
			}
			for engine, edb := range map[string]*storage.Database{"memory": db, "disk": diskDB} {
				for vname, run := range engineVariants(f) {
					got, err := run(edb, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !got.rel.Equal(naive) {
						t.Fatalf("%s %s differs from the naive evaluator\ngot:\n%s\nnaive:\n%s", engine, vname, got.rel.Dump(), naive.Dump())
					}
				}
			}
		})
	}
}
