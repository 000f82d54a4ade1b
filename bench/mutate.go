package main

import (
	"fmt"
	"strings"

	"queryflocks/internal/storage"
)

// flushPolicy is stated in every output: both sides of a comparison must
// run under the same one.
const flushPolicy = "flockd fsyncs the delta file and its directory before it publishes a data version (fsync-before-publish, flockd's default, unchanged by the bench)"

// mutateCheck is the outcome of serve.mutate-mix's end-of-run checks.
type mutateCheck struct {
	checks   int
	failures []string
	lost     int // acknowledged rows missing after the crash
}

// checkMutations replays every acknowledged write in-process and holds
// flockd's final answer against the replay's; then it SIGKILLs flockd,
// reopens the data directory and checks that every acknowledged row and
// the prepared handle survived. It leaves no server running.
//
// kill -9 leaves the operating system's page cache intact, so this
// checks that a version is published only after its rows were written
// in order — not that the device flushed them.
func checkMutations(wl workloadDef, p runParams, fd *flockd, sys *httpSystem, dataDir string,
	corpus []flockFile, db *storage.Database, acked []opResult) (*mutateCheck, error) {

	rel := db.MustRelation(mutateRel).Clone()
	for _, r := range acked {
		if !r.req.Write || r.err != nil {
			continue
		}
		for _, line := range strings.Split(strings.TrimSpace(r.req.Body), "\n") {
			fields := strings.Split(line, ",")
			t := make(storage.Tuple, len(fields))
			for i, f := range fields {
				t[i] = storage.ParseValue(f)
			}
			rel.Insert(t)
		}
	}
	replayed := db.Clone()
	replayed.Add(rel)
	src, err := corpusSource(corpus, wl.Prepare)
	if err != nil {
		fd.stop()
		return nil, err
	}
	want, err := referenceAnswer(replayed, src, 0)
	if err != nil {
		fd.stop()
		return nil, err
	}

	mc := &mutateCheck{}
	invoke := request{OpType: "invoke/" + wl.Prepare, Path: "/invoke/{handle}"}
	expect := func(when string, res opResult) {
		mc.checks++
		if res.err != nil {
			mc.failures = append(mc.failures, fmt.Sprintf("%s: %v", when, res.err))
		} else if res.got != want {
			mc.failures = append(mc.failures, fmt.Sprintf("%s: got %s, replay gives %s", when, res.got, want))
		}
	}
	sys.tr = nil // the checks are not part of the traced phase
	expect("final invoke", sys.do(invoke))

	fd.kill()
	fd, err = startFlockd(p.flockdBin, flockdArgs(wl, dataDir)...)
	if err != nil {
		return nil, fmt.Errorf("reopening %s after SIGKILL: %w", dataDir, err)
	}
	defer fd.stop()
	var rels []struct {
		Name string `json:"name"`
		Rows int    `json:"rows"`
	}
	if err := fd.getJSON("/rels", &rels); err != nil {
		return nil, err
	}
	mc.checks++
	mc.lost = rel.Len()
	for _, r := range rels {
		if r.Name == mutateRel {
			mc.lost = max(0, rel.Len()-r.Rows)
		}
	}
	if mc.lost > 0 {
		mc.failures = append(mc.failures, fmt.Sprintf("%d acknowledged %s rows lost across SIGKILL", mc.lost, mutateRel))
	}
	expect("invoke after SIGKILL", (&httpSystem{fd: fd, handle: sys.handle}).do(invoke))
	return mc, nil
}
