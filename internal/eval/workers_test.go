package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// workerSweep is the worker-count matrix every parallel-operator property
// test runs: sequential, a couple of awkward splits, and more workers than
// most hosts have cores.
var workerSweep = []int{1, 2, 3, 8}

// randomJoinDB builds a database large enough (well past the streaming
// executor's minParallelRows) to exercise its partitioned join paths, with
// enough key collisions that joins fan out and negations actually remove
// rows.
func randomJoinDB(rng *rand.Rand) *storage.Database {
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "A", "B")
	s := storage.NewRelation("s", "B", "C")
	u := storage.NewRelation("u", "A", "C")
	for i := 0; i < 4_000; i++ {
		r.InsertValues(storage.Int(int64(rng.Intn(120))), storage.Int(int64(rng.Intn(120))))
		s.InsertValues(storage.Int(int64(rng.Intn(120))), storage.Int(int64(rng.Intn(120))))
		u.InsertValues(storage.Int(int64(rng.Intn(120))), storage.Int(int64(rng.Intn(120))))
	}
	db.Add(r)
	db.Add(s)
	db.Add(u)
	return db
}

// TestParallelJoinMatchesSequential checks EvalRule is invariant in the
// worker count on randomized instances, for rule shapes covering plain
// joins, absorbed comparisons, negated atoms (both absorbed into scans and
// applied as anti-joins), and semi-join absorption. Equality is checked on
// tuple order, not just set membership: the streaming executor's
// partitioned operators are specified to reproduce sequential insertion
// order exactly.
func TestParallelJoinMatchesSequential(t *testing.T) {
	rules := []string{
		`answer(A,C) :- r(A,B) AND s(B,C)`,
		`answer(A,C) :- r(A,B) AND s(B,C) AND A < C`,
		`answer(A,C) :- r(A,B) AND s(B,C) AND NOT u(A,C)`,
		`answer(A,C) :- r(A,B) AND s(B,C) AND u(A,C)`,
		`answer(A,C) :- r(A,B) AND s(B,C) AND NOT u(A,C) AND B != C`,
	}
	for seed := int64(0); seed < 3; seed++ {
		db := randomJoinDB(rand.New(rand.NewSource(seed)))
		for _, src := range rules {
			rule, err := datalog.ParseRule(src)
			if err != nil {
				t.Fatalf("ParseRule(%q): %v", src, err)
			}
			want, err := EvalRule(db, rule, nil, &Options{Workers: 1})
			if err != nil {
				t.Fatalf("seed %d rule %q workers=1: %v", seed, src, err)
			}
			for _, w := range workerSweep[1:] {
				got, err := EvalRule(db, rule, nil, &Options{Workers: w})
				if err != nil {
					t.Fatalf("seed %d rule %q workers=%d: %v", seed, src, w, err)
				}
				if !got.Equal(want) {
					t.Fatalf("seed %d rule %q workers=%d: %d tuples, want %d",
						seed, src, w, got.Len(), want.Len())
				}
				for i, tu := range got.Tuples() {
					if !tu.Equal(want.Tuples()[i]) {
						t.Fatalf("seed %d rule %q workers=%d: tuple order diverges at %d",
							seed, src, w, i)
					}
				}
			}
		}
	}
}

// TestSetWorkersZeroAndNegative pins the knob convention: 0 and negative
// counts must behave like valid configurations (per-CPU and sequential),
// never panic or change the answer.
func TestSetWorkersZeroAndNegative(t *testing.T) {
	db := randomJoinDB(rand.New(rand.NewSource(1)))
	rule, err := datalog.ParseRule(`answer(A,C) :- r(A,B) AND s(B,C)`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvalRule(db, rule, nil, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, -3} {
		got, err := EvalRule(db, rule, nil, &Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d changed the answer", w)
		}
	}
}

// TestParallelJoinManyShapes fuzzes rule shapes over the worker sweep with
// randomized relation contents; failure messages carry the seed for
// replay.
func TestParallelJoinManyShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep skipped with -short")
	}
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomJoinDB(rng)
		src := fmt.Sprintf(`answer(A,C) :- r(A,B) AND s(B,C) AND A %s C`,
			[]string{"<", "<=", "!="}[rng.Intn(3)])
		rule, err := datalog.ParseRule(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalRule(db, rule, nil, &Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		w := workerSweep[1:][rng.Intn(len(workerSweep)-1)]
		got, err := EvalRule(db, rule, nil, &Options{Workers: w})
		if err != nil {
			t.Fatalf("seed %d workers=%d: %v", seed, w, err)
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d workers=%d: %d tuples, want %d", seed, w, got.Len(), want.Len())
		}
	}
}
