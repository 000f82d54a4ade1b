package serve

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"queryflocks/internal/storage"
)

// preparedFile is the sidecar in the data directory holding every
// prepared program's source, so registrations survive restarts.
const preparedFile = "prepared.json"

// preparedRecord is one persisted prepared-flock entry.
type preparedRecord struct {
	Handle  string `json:"handle"`
	Program string `json:"program"`
}

// persistPrepared rewrites the prepared-flock sidecar when serving a data
// directory (temp file + rename, so a crash mid-write leaves the previous
// snapshot intact). The caller holds preparedMu.
func (p *Pipeline) persistPrepared() error {
	if p.cfg.Dir == nil {
		return nil
	}
	recs := make([]preparedRecord, 0, len(p.prepared))
	for h, prog := range p.prepared {
		recs = append(recs, preparedRecord{Handle: h, Program: prog.text})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Handle < recs[j].Handle })
	raw, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(p.cfg.Dir.Path(), preparedFile)
	tmp := path + ".tmp"
	// Sync the temp file before the rename: an unsynced rename can
	// atomically publish a hollow file, losing both snapshots. The
	// directory sync after the rename makes the swap itself durable.
	if err := storage.WriteFileSync(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return storage.SyncDir(p.cfg.Dir.Path())
}

// Restore re-registers the prepared flocks persisted in the data
// directory, running the full compile stage on each program against the
// freshly opened database — entries that no longer parse, lint clean, or
// match the schema are dropped with a logged warning rather than served
// stale.
func (p *Pipeline) Restore(logf func(format string, args ...any)) {
	if p.cfg.Dir == nil {
		return
	}
	raw, err := os.ReadFile(filepath.Join(p.cfg.Dir.Path(), preparedFile))
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	var recs []preparedRecord
	if err == nil {
		err = json.Unmarshal(raw, &recs)
	}
	if err != nil {
		logf("ignoring prepared-flock sidecar: %v", err)
		return
	}
	restored := 0
	for _, rec := range recs {
		if _, _, _, err := p.prepare(rec.Program, false); err != nil {
			logf("dropping prepared flock %s: %v", rec.Handle, err)
			continue
		}
		restored++
	}
	if restored > 0 {
		logf("restored %d prepared flock(s)", restored)
	}
}
