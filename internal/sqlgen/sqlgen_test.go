package sqlgen

import (
	"strings"
	"testing"

	"queryflocks/internal/core"
	"queryflocks/internal/paper"
)

func TestFlockSQLFig1Shape(t *testing.T) {
	// The Fig. 2 flock rendered as SQL must have the Fig. 1 ingredients:
	// a self-join of baskets, the BID equality, the item ordering, a GROUP
	// BY of the item pair and a COUNT HAVING clause.
	f := paper.MarketBasket(20)
	sql, err := FlockSQL(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"FROM baskets t0, baskets t1",
		"t0.c1 = t1.c1", // shared basket ID
		"t0.c2 < t1.c2", // $1 < $2
		"GROUP BY p1, p2",
		"COUNT(DISTINCT h1) >= 20",
		"SELECT DISTINCT",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestFlockSQLNegation(t *testing.T) {
	f := paper.Medical(20)
	sql, err := FlockSQL(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"NOT EXISTS (SELECT 1 FROM causes n WHERE",
		"FROM exhibits t0, treatments t1, diagnoses t2",
		"HAVING COUNT(DISTINCT h1) >= 20",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestFlockSQLUnion(t *testing.T) {
	f := paper.WebWords(20)
	sql, err := FlockSQL(f)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(sql, "UNION") != 2 {
		t.Errorf("want 2 UNIONs:\n%s", sql)
	}
	if !strings.Contains(sql, "COUNT(DISTINCT h1)") {
		t.Errorf("union COUNT(*) over unary heads should count h1:\n%s", sql)
	}
}

func TestFlockSQLWeighted(t *testing.T) {
	f := paper.WeightedBasket(20)
	sql, err := FlockSQL(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "SUM(h2) >= 20") {
		t.Errorf("want SUM over the weight column:\n%s", sql)
	}
}

func TestFlockSQLConstants(t *testing.T) {
	f := core.MustParse(`
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,beer) AND weight(B,3)
FILTER:
COUNT(answer.B) >= 20`)
	sql, err := FlockSQL(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "= 'beer'") {
		t.Errorf("string constant not quoted:\n%s", sql)
	}
	if !strings.Contains(sql, "= 3") {
		t.Errorf("int constant missing:\n%s", sql)
	}
}

func TestFlockSQLWithViews(t *testing.T) {
	f := core.MustParse(`
VIEWS:
allCaused(P,S) :- diagnoses(P,D) AND causes(D,S)
QUERY:
answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND NOT allCaused(P,$s)
FILTER:
COUNT(answer.P) >= 20`)
	sql, err := FlockSQL(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"WITH allCaused AS (",
		"FROM diagnoses t0, causes t1",
		"NOT EXISTS (SELECT 1 FROM allCaused n",
		"HAVING COUNT(DISTINCT h1) >= 20",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("view SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestFlockSQLUnionView(t *testing.T) {
	f := core.MustParse(`
VIEWS:
senior(P) :- people(P,S) AND S > 65
senior(P) :- vip(P)
QUERY:
answer(P) :- buys(P,$i) AND senior(P)
FILTER:
COUNT(answer.P) >= 2`)
	sql, err := FlockSQL(f)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(sql, "UNION") != 1 {
		t.Errorf("union view should produce one UNION:\n%s", sql)
	}
	if !strings.Contains(sql, "senior AS (") {
		t.Errorf("missing senior CTE:\n%s", sql)
	}
}
