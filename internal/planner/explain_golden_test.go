package planner

import (
	"strings"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/storage"
)

// goldenDB builds the fixture database of the golden EXPLAIN tests: a
// small basket relation with fixed contents, so greedy join orders (and
// hence the compiled trees) are deterministic.
func goldenDB(t *testing.T) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	b := storage.NewRelation("baskets", "bid", "item")
	for _, p := range []struct {
		bid  int64
		item string
	}{
		{1, "chips"}, {1, "salsa"}, {2, "chips"}, {2, "salsa"},
		{2, "beer"}, {3, "beer"}, {3, "salsa"}, {4, "chips"},
	} {
		b.InsertValues(storage.Int(p.bid), storage.Str(p.item))
	}
	db.Add(b)
	return db
}

// goldenFlock is the shared fixture flock (the Fig. 2 market-basket
// shape) all three compilation paths render.
func goldenFlock(t *testing.T) *core.Flock {
	t.Helper()
	f, err := core.Parse(`
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 2`)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

const goldenDirect = `materialize#1 flock
└─ group#2 flock [COUNT(answer.B) >= 2]
   └─ project#3 $1,$2,B
      └─ join#4 baskets(B,$2) (+1 absorbed)
         ├─ build#5 baskets key(0)
         └─ scan#6 baskets(B,$1)`

// TestGoldenExplainDirect pins the direct strategy's physical tree: one
// pipeline per rule into the flock's group-filter and sink, with the
// $1 < $2 comparison absorbed into the second join.
func TestGoldenExplainDirect(t *testing.T) {
	plan, err := core.CompileDirect(goldenDB(t), goldenFlock(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Explain(); got != goldenDirect {
		t.Errorf("direct physical tree drifted:\n%s\nwant:\n%s", got, goldenDirect)
	}
}

const goldenSteps = `step ok_1:
materialize#1 ok_1
└─ group#2 ok_1 [COUNT(answer.B) >= 2]
   └─ project#3 $1,B
      └─ scan#4 baskets(B,$1)
step ok_2:
materialize#1 ok_2
└─ group#2 ok_2 [COUNT(answer.B) >= 2]
   └─ project#3 $2,B
      └─ scan#4 baskets(B,$2)
step ok:
materialize#1 ok
└─ group#2 ok [COUNT(answer.B) >= 2]
   └─ project#3 $1,$2,B
      └─ join#4 baskets(B,$2) (+2 absorbed)
         ├─ build#5 baskets key(0)
         └─ join#6 baskets(B,$1)
            ├─ build#7 baskets key(1)
            └─ scan#8 ok_1($1)`

// TestGoldenExplainStaticPlan pins the per-step physical trees of a
// FILTER-step plan (level-wise, one single-parameter step per
// parameter): the final step scans the tiny ok_1 step relation first
// and semi-joins ok_2 as an absorbed check.
func TestGoldenExplainStaticPlan(t *testing.T) {
	f := goldenFlock(t)
	plan, err := PlanLevelwise(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := plan.CompileSteps(goldenDB(t))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, st := range steps {
		b.WriteString("step " + st.Name + ":\n")
		b.WriteString(st.Plan.Explain())
		b.WriteByte('\n')
	}
	if got := strings.TrimRight(b.String(), "\n"); got != goldenSteps {
		t.Errorf("static step trees drifted:\n%s\nwant:\n%s", got, goldenSteps)
	}
}

const goldenDynamic = `materialize#1 flock
└─ group#2 flock [COUNT(answer.B) >= 2]
   └─ project#3 $1,$2,B
      └─ materialize#4 bind2 [decide on [$1 $2]]
         └─ join#5 baskets(B,$2) (+1 absorbed)
            ├─ build#6 baskets key(0)
            └─ materialize#7 bind1 [decide on [$1]]
               └─ scan#8 baskets(B,$1)`

// TestGoldenExplainDynamic pins the dynamic strategy's barrier plan: a
// Materialize decision barrier after every join where some parameters
// and all head columns are bound.
func TestGoldenExplainDynamic(t *testing.T) {
	plan, err := CompileDynamic(goldenDB(t), goldenFlock(t), &DynamicOptions{FixedOrder: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Explain(); got != goldenDynamic {
		t.Errorf("dynamic physical tree drifted:\n%s\nwant:\n%s", got, goldenDynamic)
	}
}
