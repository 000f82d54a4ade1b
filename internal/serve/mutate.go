package serve

import (
	"encoding/csv"
	"fmt"
	"net/http"
	"strings"

	"queryflocks/internal/storage"
)

// Mutation is the result of an applied Mutate.
type Mutation struct {
	Relation string `json:"relation"`
	Inserted int    `json:"inserted"`
	Rows     int    `json:"rows"`
	Version  uint64 `json:"version"`
}

// Mutate appends CSV rows (no header; fields in relation column order) to
// the named relation. The mutation is the source's copy-on-write
// WithDelta under either engine, which interns the values once: the new
// view is registered in a cloned catalog, the added ID rows are persisted
// when the server has a data directory, the data-version counter is
// bumped, and the new database is published atomically — in-flight
// requests keep evaluating their snapshot, and every cache entry keyed on
// the old version becomes unreachable. The plan cache and the memo drop
// their old-version entries at once.
func (p *Pipeline) Mutate(name, body string) (*Mutation, error) {
	if p.cfg.Cluster != nil {
		return nil, statusErrorf(http.StatusNotImplemented,
			"mutations are not supported in coordinator mode: workers derive their shard partition from their own data load; update the data and restart the cluster")
	}
	if len(body) > MaxProgramBytes {
		return nil, statusErrorf(http.StatusRequestEntityTooLarge, "mutation exceeds the %d-byte limit", MaxProgramBytes)
	}
	records, err := csv.NewReader(strings.NewReader(body)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("bad CSV: %v", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	src, err := p.db.Source(name)
	if err != nil {
		return nil, statusErrorf(http.StatusNotFound, "%v", err)
	}
	arity := src.Arity()
	rows := make([]storage.Tuple, 0, len(records))
	for i, rec := range records {
		if len(rec) != arity {
			return nil, fmt.Errorf("row %d has %d fields but relation %s has %d columns", i+1, len(rec), name, arity)
		}
		t := make(storage.Tuple, len(rec))
		for j, field := range rec {
			t[j] = storage.ParseValue(field)
		}
		rows = append(rows, t)
	}

	newVersion := p.db.Version() + 1
	next, added, err := src.WithDelta(rows)
	if err != nil {
		return nil, err
	}
	// Durability before visibility: the delta lands on disk before the
	// bumped database is published, so a crash can lose an acknowledged
	// response but never serve rows that later vanish.
	if p.cfg.Dir != nil {
		if err := p.cfg.Dir.AppendDelta(name, added, newVersion); err != nil {
			return nil, statusErrorf(http.StatusInternalServerError, "persisting mutation: %v", err)
		}
	}
	db := p.db.Clone()
	db.AddSource(next)
	db.SetVersion(newVersion)
	p.db = db
	p.plans.Purge(newVersion)
	p.memo.Purge(newVersion)
	return &Mutation{Relation: name, Inserted: len(added), Rows: next.Len(), Version: newVersion}, nil
}
