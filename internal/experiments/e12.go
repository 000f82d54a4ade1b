package experiments

import (
	"fmt"
	"os"

	"queryflocks/internal/core"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// E12 demonstrates the pluggable storage engine: the same flock, over the
// same data directory, evaluated with relations fully materialized as
// boxed tuples (engine=memory) and served from the sorted segment files
// (engine=disk). Both run the same ID-column executor; what the disk
// engine keeps resident of a base relation is its ID columns (4 bytes per
// cell, built by one streaming pass over the segment), never boxed
// tuples. The flock is a pure scan+group shape — frequent single items,
// the first a-priori pass — whose rows stream through the scan operator
// into per-group COUNT accumulators, so the peak number of buffered
// tuples stays far below the base cardinality.
//
// Answers must be bit-identical across engines and worker counts (the
// storage-oracle contract); a mismatch fails the experiment.
func E12(cfg Config) (*Table, error) {
	// A small item universe against many baskets: per-group COUNT
	// accumulators stop retaining tuples once the monotone threshold is
	// reached, so the engine's peak buffered state is on the order of
	// items x threshold — far below the base cardinality it streams past.
	db := workload.Baskets(workload.BasketConfig{
		Baskets:  cfg.scaled(20_000),
		Items:    cfg.scaled(500),
		MeanSize: 8,
		Skew:     1.0,
		Seed:     cfg.Seed,
	})
	baseRows := db.MustRelation("baskets").Len()

	// The data directory under test: -data-dir reuses (or creates) a
	// persistent one, otherwise the experiment ingests into a temp dir.
	dir := cfg.DataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "flock-e12-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	if err := storage.CreateDir(dir, db); err != nil {
		return nil, fmt.Errorf("E12 ingest: %w", err)
	}

	// Frequent single items — the first a-priori pass as a flock. One
	// positive subgoal and a monotone COUNT: nothing but the group
	// accumulators buffers tuples.
	f := core.MustParse(`QUERY:
answer(B) :- baskets(B,$1)
FILTER:
COUNT(answer.B) >= 20
`)

	t := &Table{
		ID:     "E12",
		Title:  "storage engines — memory-resident vs disk-streamed segments",
		Header: []string{"engine", "workers", "time", "answers", "peak tuples", "bytes read"},
	}

	var oracle *storage.Relation
	for _, engine := range []storage.Engine{storage.EngineMemory, storage.EngineDisk} {
		for _, workers := range []int{1, 8} {
			edb, _, err := storage.OpenDir(dir, engine)
			if err != nil {
				return nil, fmt.Errorf("E12 open %s: %w", engine, err)
			}
			tr := cfg.Instrument()
			opts := cfg.TracedOpts(tr)
			opts.Workers = workers
			var answer *storage.Relation
			elapsed, err := timed(func() error {
				var err error
				answer, err = f.Eval(edb, opts)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("E12 %s: %w", engine, err)
			}
			if oracle == nil {
				oracle = answer
			} else if !answer.Equal(oracle) {
				return nil, fmt.Errorf("E12: engine %s (workers=%d) disagrees with the oracle", engine, workers)
			}
			peak, bytesRead := "-", "-"
			if tr != nil {
				rep := tr.Report(fmt.Sprintf("E12 %s", engine), workers, answer.Len())
				t.OpReports = append(t.OpReports, rep)
				peak = fmt.Sprintf("%d", rep.PeakTuples)
				bytesRead = fmt.Sprintf("%d", rep.StorageBytesRead)
				// The pipeline's peak buffered tuples stay well below the
				// base cardinality it scanned.
				if engine == storage.EngineDisk && rep.PeakTuples*4 > baseRows {
					return nil, fmt.Errorf("E12: disk peak %d tuples is not ≪ base %d rows",
						rep.PeakTuples, baseRows)
				}
			}
			t.AddRow(engine.String(), fmt.Sprintf("%d", workers), ms(elapsed),
				fmt.Sprintf("%d", answer.Len()), peak, bytesRead)
		}
	}
	// Cross-check against the original in-memory database, bypassing the
	// data directory round-trip entirely.
	direct, err := f.Eval(db, cfg.EvalOpts())
	if err != nil {
		return nil, err
	}
	if !direct.Equal(oracle) {
		return nil, fmt.Errorf("E12: data-directory answers differ from the in-memory database")
	}
	t.AddNote("answers bit-identical across engines, worker counts, and the CSV-loaded database (%d rows streamed)", baseRows)
	return t, nil
}
