package serve

import (
	"fmt"
	"sync"
	"testing"

	"queryflocks/internal/storage"
)

func rel(name string, rows int) *storage.Relation {
	r := storage.NewRelation(name, "A")
	for i := 0; i < rows; i++ {
		r.InsertValues(storage.Int(int64(i)))
	}
	return r
}

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("a: got %v %v", v, ok)
	}
	c.Put("c", 3) // evicts b (a was just touched)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("traffic counters: %+v", st)
	}
}

func TestPlanCacheReplace(t *testing.T) {
	c := NewPlanCache(2)
	c.Put("a", 1)
	c.Put("a", 2)
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("replace: got %v", v)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("replace must not evict: %+v", st)
	}
}

func TestPlanCacheNilIsDisabled(t *testing.T) {
	var c *PlanCache
	if c = NewPlanCache(0); c != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache must always miss")
	}
	if st := c.Stats(); st != (PlanStats{}) {
		t.Fatalf("nil stats: %+v", st)
	}
}

func TestMemoByteBoundEvicts(t *testing.T) {
	// Each 10-row unary relation estimates to 10*(48+24)+256 = 976 bytes.
	// The quarter-bound rule means at least four same-size entries always
	// fit, so bound the memo to exactly four and insert a fifth.
	m := NewMemo(4 * 976)
	for _, k := range []string{"k1", "k2", "k3", "k4"} {
		m.PutExtended(k, rel(k, 10))
	}
	if _, ok := m.Extended("k1"); !ok {
		t.Fatal("k1 should fit")
	}
	m.PutSurvivors("k5", rel("k5", 10)) // evicts k2 (k1 was just touched)
	if _, ok := m.Extended("k2"); ok {
		t.Fatal("k2 should have been evicted as least recently used")
	}
	if _, ok := m.Survivors("k5"); !ok {
		t.Fatal("k5 should be present")
	}
	st := m.Stats()
	if st.Evictions != 1 || st.Entries != 4 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Bytes <= 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("bytes gauge out of range: %+v", st)
	}
}

func TestMemoRejectsOversizedEntry(t *testing.T) {
	m := NewMemo(4000) // quarter bound = 1000 bytes; a 100-row relation exceeds it
	m.PutExtended("big", rel("r", 100))
	if _, ok := m.Extended("big"); ok {
		t.Fatal("an entry above a quarter of the bound must not be cached")
	}
	if st := m.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized put must not count: %+v", st)
	}
}

func TestMemoPlanesAreDistinct(t *testing.T) {
	m := NewMemo(1 << 20)
	m.PutExtended("k", rel("ext", 3))
	if _, ok := m.Survivors("k"); ok {
		t.Fatal("extended and survivor planes must not alias on the same key")
	}
	st := m.Stats()
	if st.SurvMiss != 1 || st.ExtHits != 0 {
		t.Fatalf("counters: %+v", st)
	}
}

func TestMemoNilIsDisabled(t *testing.T) {
	var m *Memo
	if m = NewMemo(0); m != nil {
		t.Fatal("bound 0 should disable the memo")
	}
	m.PutExtended("k", rel("r", 1))
	if _, ok := m.Extended("k"); ok {
		t.Fatal("nil memo must always miss")
	}
}

func TestHandleContentDerived(t *testing.T) {
	if h := Handle("canon text"); h != Handle("canon text") || h == Handle("other text") {
		t.Fatalf("handles must be content-derived: %q", h)
	}
}

// TestConcurrentAccess hammers both cache structures from many goroutines;
// it exists to fail under -race if any lock is missing.
func TestConcurrentAccess(t *testing.T) {
	m := NewMemo(10_000)
	c := NewPlanCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				m.PutExtended(k, rel("r", i%20))
				m.Extended(k)
				m.PutSurvivors(k, rel("s", i%5))
				m.Survivors(k)
				c.Put(k, i)
				c.Get(k)
				m.Stats()
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := m.Stats(); st.Bytes < 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("byte gauge out of bounds after concurrent churn: %+v", st)
	}
}
