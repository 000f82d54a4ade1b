package serve

import (
	"fmt"
	"sync"
	"testing"

	"queryflocks/internal/physical"
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

// idRows returns n one-column ID rows interned in dict.
func idRows(dict *storage.Dict, n int) *physical.IDRows {
	return &physical.IDRows{Dict: dict, N: n, Cols: [][]uint32{make([]uint32, n)}}
}

func TestMemoByteBoundEvicts(t *testing.T) {
	// Each 10-row unary relation estimates to 10*(48+24)+256 = 976 bytes.
	// The quarter-bound rule means at least four same-size entries always
	// fit, so bound the memo to exactly four and add a fifth entry: 100
	// one-column ID rows, 100*4+24+256 = 680 bytes.
	m := NewMemo(4 * 976)
	v := m.At(0)
	for _, k := range []string{"k1", "k2", "k3", "k4"} {
		v.PutSurvivors(k, rel(k, 10))
	}
	if _, ok := v.Survivors("k1"); !ok {
		t.Fatal("k1 should fit")
	}
	v.PutExtended("k5", idRows(nil, 100)) // evicts k2 (k1 was just touched)
	if _, ok := v.Survivors("k2"); ok {
		t.Fatal("k2 should have been evicted as least recently used")
	}
	if _, ok := v.Extended("k5", nil); !ok {
		t.Fatal("k5 should be present")
	}
	st := m.Stats()
	if st.Evictions != 1 || st.Entries != 4 || st.Bytes != 3*976+680 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMemoRejectsOversizedEntry(t *testing.T) {
	m := NewMemo(4000) // quarter bound = 1000 bytes; 200 ID rows estimate to 1080
	m.At(0).PutExtended("big", idRows(nil, 200))
	if _, ok := m.At(0).Extended("big", nil); ok {
		t.Fatal("an entry above a quarter of the bound must not be cached")
	}
	if st := m.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized put must not count: %+v", st)
	}
}

func TestMemoPlanesAreDistinct(t *testing.T) {
	m := NewMemo(1 << 20)
	m.At(0).PutExtended("k", idRows(nil, 3))
	if _, ok := m.At(0).Survivors("k"); ok {
		t.Fatal("extended and survivor planes must not alias on the same key")
	}
	st := m.Stats()
	if st.SurvMiss != 1 || st.ExtHits != 0 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestMemoExtendedNeedsItsDict: ID rows mean nothing under another
// dictionary, so a lookup under one is a miss.
func TestMemoExtendedNeedsItsDict(t *testing.T) {
	m := NewMemo(1 << 20)
	d := storage.NewDict()
	m.At(0).PutExtended("k", idRows(d, 3))
	if _, ok := m.At(0).Extended("k", storage.NewDict()); ok {
		t.Fatal("a hit under a different dictionary must be a miss")
	}
	if rows, ok := m.At(0).Extended("k", d); !ok || rows.N != 3 {
		t.Fatal("the entry's own dictionary must hit")
	}
	if st := m.Stats(); st.ExtHits != 1 || st.ExtMisses != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestMemoPurge: Purge drops the entries of older versions as evictions,
// leaves the traffic counters alone, and declines later puts for them.
func TestMemoPurge(t *testing.T) {
	m := NewMemo(1 << 20)
	old, cur := m.At(3), m.At(4)
	old.PutExtended("a", idRows(nil, 3))
	old.PutSurvivors("a", rel("a", 2))
	cur.PutSurvivors("b", rel("b", 2))
	old.Survivors("a")
	before := m.Stats()
	m.Purge(4)
	st := m.Stats()
	if st.Entries != 1 || st.Evictions != before.Evictions+2 || st.Bytes != relBytes(rel("b", 2)) {
		t.Fatalf("after purge: %+v", st)
	}
	if st.SurvHits != before.SurvHits || st.SurvMiss != before.SurvMiss || st.ExtHits != before.ExtHits || st.ExtMisses != before.ExtMisses {
		t.Fatalf("purge moved the traffic counters: %+v -> %+v", before, st)
	}
	old.PutSurvivors("c", rel("c", 1))
	if _, ok := cur.Survivors("b"); !ok || m.Stats().Entries != 1 {
		t.Fatalf("a retired version's put was kept, or the current entry lost: %+v", m.Stats())
	}
}

func TestMemoNilIsDisabled(t *testing.T) {
	var m *Memo
	if m = NewMemo(0); m != nil {
		t.Fatal("bound 0 should disable the memo")
	}
	m.At(0).PutExtended("k", idRows(nil, 1))
	if _, ok := m.At(0).Extended("k", nil); ok {
		t.Fatal("nil memo must always miss")
	}
	m.Purge(1)
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
				v := m.At(uint64(i / 50))
				v.PutExtended(k, idRows(nil, i%20))
				v.Extended(k, nil)
				v.PutSurvivors(k, rel("s", i%5))
				v.Survivors(k)
				if i%50 == 0 {
					m.Purge(uint64(i / 50))
				}
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
