package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func benchRelation(rows int) *Relation {
	r := NewRelation("bench", "A", "B", "C")
	for i := 0; i < rows; i++ {
		r.Insert(Tuple{Int(int64(i % 997)), Str(fmt.Sprintf("v%d", i%313)), Float(float64(i % 101))})
	}
	return r
}

func BenchmarkRelationInsert(b *testing.B) {
	b.ReportAllocs()
	r := NewRelation("bench", "A", "B")
	for i := 0; i < b.N; i++ {
		r.Insert(Tuple{Int(int64(i)), Str("x")})
	}
}

func BenchmarkRelationInsertDuplicates(b *testing.B) {
	b.ReportAllocs()
	r := NewRelation("bench", "A", "B")
	t := Tuple{Int(1), Str("x")}
	r.Insert(t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Insert(t)
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	r := benchRelation(50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildIndex(r.Tuples(), []int{0})
	}
}

func BenchmarkIndexLookup(b *testing.B) {
	r := benchRelation(50_000)
	ix := r.Index([]int{0})
	key := Tuple{Int(42)}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got []Tuple
		got, buf = ix.Lookup(key, buf)
		if len(got) == 0 {
			b.Fatal("no match")
		}
	}
}

func BenchmarkTupleKey(b *testing.B) {
	t := Tuple{Int(123456), Str("some item name"), Float(2.5)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = t.Key()
	}
}

func BenchmarkCSVRoundTrip(b *testing.B) {
	r := benchRelation(5_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf strings.Builder
		if err := WriteCSV(r, &buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadCSV("bench", strings.NewReader(buf.String())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSurvivorFraction(b *testing.B) {
	r := benchRelation(50_000)
	db := NewDatabase()
	db.Add(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStats(db) // fresh stats: measure the uncached path
		if f := st.SurvivorFraction("bench", "A", 10); f <= 0 {
			b.Fatal("no survivors")
		}
	}
}

// BenchmarkOpenDir opens a data directory of the shape `flockgen -kind
// words -n 3000` writes — 3000 documents of 1–29 words from an 18,000-word
// Zipf (s = 1.1) vocabulary — under each engine. The dictionary decode is
// the part both engines share.
func BenchmarkOpenDir(b *testing.B) {
	rng := rand.New(rand.NewSource(1998))
	zipf := rand.NewZipf(rng, 1.1, 1, 17_999)
	rel := NewRelation("baskets", "BID", "Item")
	for d := 0; d < 3000; d++ {
		for n := 1 + rng.Intn(29); n > 0; n-- {
			rel.InsertValues(Int(int64(d)), Int(int64(zipf.Uint64())))
		}
	}
	db := NewDatabase()
	db.Add(rel)
	dir := b.TempDir()
	if err := CreateDir(dir, db); err != nil {
		b.Fatal(err)
	}
	for _, engine := range []Engine{EngineMemory, EngineDisk} {
		b.Run(engine.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := OpenDir(dir, engine); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
