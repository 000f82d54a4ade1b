package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"queryflocks/internal/datalog"
	"queryflocks/internal/storage"
)

// benchDB builds r(A,B), s(B,C) with moderate fan-out and a small t(A).
func benchDB(rows int) *storage.Database {
	rng := rand.New(rand.NewSource(8))
	db := storage.NewDatabase()
	r := storage.NewRelation("r", "A", "B")
	s := storage.NewRelation("s", "B", "C")
	tt := storage.NewRelation("t", "A")
	for i := 0; i < rows; i++ {
		r.InsertValues(storage.Int(int64(rng.Intn(rows/4+1))), storage.Int(int64(rng.Intn(rows/8+1))))
		s.InsertValues(storage.Int(int64(rng.Intn(rows/8+1))), storage.Int(int64(rng.Intn(rows/4+1))))
	}
	for i := 0; i < rows/20+1; i++ {
		tt.InsertValues(storage.Int(int64(i)))
	}
	db.Add(r)
	db.Add(s)
	db.Add(tt)
	return db
}

func benchEval(b *testing.B, src string, opts *Options) {
	db := benchDB(20_000)
	rule, err := datalog.ParseRule(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalRule(db, rule, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoWayJoin(b *testing.B) {
	benchEval(b, "answer(A,C) :- r(A,B) AND s(B,C)", nil)
}

func BenchmarkThreeWayJoinWithSemiJoin(b *testing.B) {
	benchEval(b, "answer(A,C) :- r(A,B) AND s(B,C) AND t(A)", nil)
}

func BenchmarkJoinWithNegation(b *testing.B) {
	benchEval(b, "answer(A,B) :- r(A,B) AND NOT t(A)", nil)
}

func BenchmarkJoinWithComparison(b *testing.B) {
	benchEval(b, "answer(A,C) :- r(A,B) AND s(B,C) AND A < C", nil)
}

func BenchmarkJoinOrderPlanning(b *testing.B) {
	db := benchDB(20_000)
	var body []datalog.Subgoal
	for i := 0; i < 6; i++ {
		body = append(body, datalog.NewAtom("r", datalog.Var(fmt.Sprintf("A%d", i)), datalog.Var(fmt.Sprintf("A%d", i+1))))
	}
	rule := datalog.NewRule(datalog.NewAtom("answer", datalog.Var("A0")), body...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := JoinOrder(db, rule); err != nil {
			b.Fatal(err)
		}
	}
}
