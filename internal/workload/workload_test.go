package workload

import (
	"math"
	"math/rand"
	"testing"

	"queryflocks/internal/storage"
)

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := NewZipf(rng, 100, 1.0)
	counts := make([]int, 100)
	const n = 50_000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 should dominate: with s=1 over 100 ranks, p(0) ~ 1/H_100 ~ 0.19.
	p0 := float64(counts[0]) / n
	if p0 < 0.15 || p0 > 0.25 {
		t.Errorf("p(rank 0) = %.3f, want ~0.19", p0)
	}
	// Monotone-ish decay: top rank beats rank 50 by a wide margin.
	if counts[0] < 10*counts[50] {
		t.Errorf("skew too flat: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestZipfUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := NewZipf(rng, 10, 0) // s=0 is uniform
	counts := make([]int, 10)
	const n = 20_000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for r, c := range counts {
		if math.Abs(float64(c)-n/10) > n/20 {
			t.Errorf("rank %d count %d far from uniform", r, c)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(0 ranks) should panic")
		}
	}()
	NewZipf(rand.New(rand.NewSource(1)), 0, 1)
}

func TestBasketsDeterministic(t *testing.T) {
	cfg := BasketConfig{Baskets: 200, Items: 50, MeanSize: 5, Skew: 0.9, Seed: 7}
	a := Baskets(cfg)
	b := Baskets(cfg)
	ra, _ := a.Relation("baskets")
	rb, _ := b.Relation("baskets")
	if !ra.Equal(rb) {
		t.Error("same seed produced different baskets")
	}
	cfg.Seed = 8
	rc, _ := Baskets(cfg).Relation("baskets")
	if ra.Equal(rc) {
		t.Error("different seeds produced identical baskets")
	}
}

func TestBasketsShape(t *testing.T) {
	cfg := BasketConfig{Baskets: 500, Items: 100, MeanSize: 6, Skew: 1.0, Seed: 3}
	db := Baskets(cfg)
	rel, err := db.Relation("baskets")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Arity() != 2 {
		t.Fatalf("arity = %d", rel.Arity())
	}
	if n, err := rel.DistinctCount("BID"); err != nil || n != cfg.Baskets {
		t.Errorf("baskets = %d, %v, want %d", n, err, cfg.Baskets)
	}
	// Popular item 0 should appear in far more baskets than item 50.
	ix := rel.Index([]int{rel.ColumnIndex("Item")})
	m0, _ := ix.Lookup(storage.Tuple{storage.Int(0)}, nil)
	m50, _ := ix.Lookup(storage.Tuple{storage.Int(50)}, nil)
	n0, n50 := len(m0), len(m50)
	if n0 <= n50 {
		t.Errorf("no skew: item0 in %d baskets, item50 in %d", n0, n50)
	}
}

func TestWordsDefaults(t *testing.T) {
	db := Words(300, 200, 8, 11)
	rel, err := db.Relation("baskets")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := rel.DistinctCount("BID"); err != nil || n != 300 {
		t.Errorf("docs = %d, %v", n, err)
	}
}

func TestAttachWeights(t *testing.T) {
	db := Baskets(BasketConfig{Baskets: 100, Items: 20, MeanSize: 4, Skew: 0.8, Seed: 5})
	if err := AttachWeights(db, 10, 6); err != nil {
		t.Fatal(err)
	}
	imp, err := db.Relation("importance")
	if err != nil {
		t.Fatal(err)
	}
	if imp.Len() != 100 {
		t.Errorf("importance rows = %d, want one per basket", imp.Len())
	}
	for _, tp := range imp.Tuples() {
		w := tp[1].AsInt()
		if w < 1 || w > 10 {
			t.Fatalf("weight %d out of range", w)
		}
	}
	// Missing baskets relation errors.
	if err := AttachWeights(storage.NewDatabase(), 10, 6); err == nil {
		t.Error("AttachWeights without baskets should error")
	}
}

func TestMedicalShape(t *testing.T) {
	cfg := DefaultMedical(2000, 13)
	db := Medical(cfg)
	for _, name := range []string{"diagnoses", "exhibits", "treatments", "causes"} {
		if !db.Has(name) {
			t.Fatalf("missing relation %q", name)
		}
	}
	diag := db.MustRelation("diagnoses")
	if diag.Len() != cfg.Patients {
		t.Errorf("diagnoses = %d, want %d", diag.Len(), cfg.Patients)
	}
	if db.MustRelation("treatments").Len() != cfg.Patients {
		t.Error("each patient should take exactly one medicine")
	}
	causes := db.MustRelation("causes")
	if causes.Len() != cfg.Diseases*cfg.SymptomsPerDisease {
		t.Errorf("causes = %d", causes.Len())
	}
	// The planted side-effect symptom must appear well above noise among
	// takers of the planted medicine.
	ex := db.MustRelation("exhibits")
	ixSym := ex.Index([]int{ex.ColumnIndex("Symptom")})
	sym190, _ := ixSym.Lookup(storage.Tuple{storage.Str("s190")}, nil)
	s190 := len(sym190)
	if s190 < 20 {
		t.Errorf("planted side-effect symptom s190 appears only %d times", s190)
	}
	// Determinism.
	db2 := Medical(cfg)
	if !ex.Equal(db2.MustRelation("exhibits")) {
		t.Error("same seed produced different exhibits")
	}
}

func TestWebShape(t *testing.T) {
	db := Web(DefaultWeb(300, 21))
	for _, name := range []string{"inTitle", "inAnchor", "link"} {
		if !db.Has(name) {
			t.Fatalf("missing relation %q", name)
		}
	}
	link := db.MustRelation("link")
	inAnchor := db.MustRelation("inAnchor")
	if link.Len() == 0 || inAnchor.Len() == 0 {
		t.Fatal("empty web relations")
	}
	// Every anchor with words must be a link anchor.
	linkAnchors := make(map[storage.Value]bool)
	for _, t := range link.Tuples() {
		linkAnchors[t[0]] = true
	}
	for _, tp := range inAnchor.Tuples() {
		if !linkAnchors[tp[0]] {
			t.Fatalf("anchor %v has words but no link", tp[0])
		}
	}
	// Doc and anchor ID spaces are disjoint (Fig. 4 requirement).
	docs := make(map[storage.Value]bool)
	for _, tp := range db.MustRelation("inTitle").Tuples() {
		docs[tp[0]] = true
	}
	for a := range linkAnchors {
		if docs[a] {
			t.Fatalf("ID %v is both an anchor and a document", a)
		}
	}
}

func TestGraphShape(t *testing.T) {
	cfg := DefaultGraph(1000, 31)
	db := Graph(cfg)
	arc := db.MustRelation("arc")
	if arc.Len() == 0 {
		t.Fatal("empty graph")
	}
	// Hubs have high out-degree.
	ix := arc.Index([]int{arc.ColumnIndex("From")})
	hubArcs, _ := ix.Lookup(storage.Tuple{storage.Int(0)}, nil)
	hubDeg := len(hubArcs)
	if hubDeg < cfg.HubDegree/2 {
		t.Errorf("hub 0 out-degree %d, want near %d", hubDeg, cfg.HubDegree)
	}
	// No self-loops.
	for _, tp := range arc.Tuples() {
		if tp[0] == tp[1] {
			t.Fatalf("self-loop at %v", tp[0])
		}
	}
	// Determinism.
	if !arc.Equal(Graph(cfg).MustRelation("arc")) {
		t.Error("same seed produced different graphs")
	}
}
