package storage

import (
	"fmt"
	"strings"
	"sync"
)

// Database is a named collection of relation sources — the catalog
// against which flock queries are evaluated. Lookup is by relation
// (predicate) name. Every entry is a RelationSource.
type Database struct {
	srcs  map[string]RelationSource // every registered source
	order []string                  // registration order, for deterministic listings
	dict  *dictBox                  // shared value dictionary (see Dict)
	io    *IOStats                  // disk-engine I/O counters; nil for pure in-memory catalogs

	// version is the data-mutation counter (see Version). It is part of
	// every serving-layer cache key, so bumping it invalidates cached
	// plans and memoized candidate-subquery results without touching them.
	version uint64
}

// dictBox holds a database's lazily built dictionary. The box (not just
// the *Dict) is shared by Clone, so a clone made before the first
// columnar run still ends up with the same dictionary as its parent —
// parallel executors clone scratch catalogs freely and must all intern
// against one ID space.
type dictBox struct {
	mu sync.Mutex
	d  *Dict
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{
		srcs: make(map[string]RelationSource),
		dict: &dictBox{},
	}
}

// Dict returns the database's value dictionary, building it on first use
// with order-preserving IDs over every value currently stored (see
// BuildDict). The dictionary is shared with all Clones of the database,
// before or after this call. Safe for concurrent use. The build can fail
// only over a disk source (a column-file read error); nothing is cached then,
// so a later call retries.
func (db *Database) Dict() (*Dict, error) {
	db.dict.mu.Lock()
	defer db.dict.mu.Unlock()
	if db.dict.d == nil {
		d, err := BuildDict(db)
		if err != nil {
			return nil, err
		}
		db.dict.d = d
	}
	return db.dict.d, nil
}

// Add registers an in-memory relation under its own name, replacing any
// previous source with that name.
func (db *Database) Add(r *Relation) { db.AddSource(r) }

// AddSource registers any relation source, replacing a previous source
// with the same name.
func (db *Database) AddSource(s RelationSource) {
	if _, exists := db.srcs[s.Name()]; !exists {
		db.order = append(db.order, s.Name())
	}
	db.srcs[s.Name()] = s
}

// Remove drops the named relation, if present.
func (db *Database) Remove(name string) {
	if _, ok := db.srcs[name]; !ok {
		return
	}
	delete(db.srcs, name)
	for i, n := range db.order {
		if n == name {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
}

// Source returns the named relation source, or an error naming it if
// absent. This is the engine-agnostic lookup every streaming consumer
// uses; Relation is the materializing variant.
func (db *Database) Source(name string) (RelationSource, error) {
	s, ok := db.srcs[name]
	if !ok {
		return nil, fmt.Errorf("storage: no relation %q in database", name)
	}
	return s, nil
}

// MustSource is Source but panics on a missing name.
func (db *Database) MustSource(name string) RelationSource {
	s, err := db.Source(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Relation returns the named relation as boxed in-memory tuples,
// materializing a disk source on first use (the source caches its pin),
// or an error naming it if absent.
func (db *Database) Relation(name string) (*Relation, error) {
	s, err := db.Source(name)
	if err != nil {
		return nil, err
	}
	return s.Pin()
}

// IO returns the catalog's disk I/O counters (nil for pure in-memory
// databases).
func (db *Database) IO() *IOStats { return db.io }

// SetIO attaches I/O counters; shared by all Clones.
func (db *Database) SetIO(s *IOStats) { db.io = s }

// seedDict installs a pre-built dictionary (loaded from a data dir),
// consuming the lazy-build slot.
func (db *Database) seedDict(d *Dict) { db.dict = &dictBox{d: d} }

// MustRelation is Relation but panics on a missing name; for use where the
// name was already validated.
func (db *Database) MustRelation(name string) *Relation {
	r, err := db.Relation(name)
	if err != nil {
		panic(err)
	}
	return r
}

// Has reports whether the database holds a relation with the given name.
func (db *Database) Has(name string) bool {
	_, ok := db.srcs[name]
	return ok
}

// Names returns the relation names in registration order.
func (db *Database) Names() []string { return db.order }

// Version returns the database's data-mutation counter. Serving-layer
// caches (plan cache, candidate-subquery memo) key their entries on this
// value, so results computed against one version can never answer a
// request against another. The counter is not synchronized: callers that
// mutate shared databases concurrently must publish a bumped copy (see
// Clone + SetVersion) rather than mutate in place.
func (db *Database) Version() uint64 { return db.version }

// SetVersion overwrites the data-mutation counter (used when loading a
// snapshot that carries its own version).
func (db *Database) SetVersion(v uint64) { db.version = v }

// Clone returns a database sharing the relation objects but with an
// independent name table, so plan executors can register temporary
// relations without mutating the caller's database.
func (db *Database) Clone() *Database {
	out := NewDatabase()
	out.dict = db.dict       // share the dictionary box (see dictBox)
	out.io = db.io           // share the I/O counters
	out.version = db.version // a clone answers for the same data version
	for _, n := range db.order {
		out.AddSource(db.srcs[n])
	}
	return out
}

// String lists the relations and their sizes.
func (db *Database) String() string {
	var b strings.Builder
	for i, n := range db.order {
		if i > 0 {
			b.WriteString("; ")
		}
		s := db.srcs[n]
		fmt.Fprintf(&b, "%s(%s)[%d tuples]", s.Name(), strings.Join(s.Columns(), ", "), s.Len())
	}
	return b.String()
}

// Stats exposes the statistics the cost-based planner consumes: relation
// cardinalities, per-column distinct counts, and group-size quantiles used
// to estimate how many parameter values survive a support threshold
// (§4.3's "estimate for the expected sizes of relations and joins").
// Results are computed on demand and cached; the cache is keyed by relation
// identity and remains valid while relations are not mutated.
type Stats struct {
	db        *Database
	survivors map[string]float64
}

// NewStats creates a statistics view over db.
func NewStats(db *Database) *Stats {
	return &Stats{db: db, survivors: make(map[string]float64)}
}

// Rows returns the cardinality of the named relation (0 if absent).
func (s *Stats) Rows(name string) int {
	src, err := s.db.Source(name)
	if err != nil {
		return 0
	}
	return src.Len()
}

// Distinct returns the number of distinct values in rel.col (0 if absent).
func (s *Stats) Distinct(name, col string) int {
	src, err := s.db.Source(name)
	if err != nil {
		return 0
	}
	n, err := src.DistinctCount(col)
	if err != nil {
		return 0
	}
	return n
}

// groupSizes returns the ascending group-size multiset of rel.col and the
// relation's row count; no sizes when the relation or column is absent,
// the relation is empty, or a disk source cannot be read. Statistics only
// steer plan choice: a read failure resurfaces as a typed error when the
// chosen plan opens the same relation.
func (s *Stats) groupSizes(name, col string) ([]int, int) {
	src, err := s.db.Source(name)
	if err != nil {
		return nil, 0
	}
	sizes, err := src.GroupSizes(col)
	if err != nil {
		return nil, 0
	}
	return sizes, src.Len()
}

// SurvivorFraction returns the fraction of distinct values of rel.groupCol
// whose group (set of tuples sharing that value) has size >= threshold.
// This is the exact selectivity of a single-subgoal a-priori filter such as
// "okS($s) := symptoms appearing in >= 20 patients" and is the anchor of
// the planner's filter-benefit estimates.
func (s *Stats) SurvivorFraction(name, groupCol string, threshold int) float64 {
	key := fmt.Sprintf("%s\x00%s\x00%d", name, groupCol, threshold)
	if v, ok := s.survivors[key]; ok {
		return v
	}
	sizes, _ := s.groupSizes(name, groupCol)
	if len(sizes) == 0 {
		return 0
	}
	pass := 0
	for _, sz := range sizes {
		if sz >= threshold {
			pass++
		}
	}
	v := float64(pass) / float64(len(sizes))
	s.survivors[key] = v
	return v
}
