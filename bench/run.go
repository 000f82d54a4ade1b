package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"queryflocks/internal/analysis"
	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/obs"
	"queryflocks/internal/planner"
	"queryflocks/internal/storage"
)

// phase is what one measured phase yields, whichever process ran it. The
// batch child prints it as JSON for its parent.
type phase struct {
	SetupS    float64              `json:"setup_s"`
	WallS     float64              `json:"wall_s"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Messages  []string             `json:"messages,omitempty"`
	Reads     map[string][]float64 `json:"reads_ms"`
	Writes    []float64            `json:"writes_ms,omitempty"`
	// PeakRSSMiB is the largest VmHWM any of the run's instances of the
	// system reached, set-up instances included: how high one allocation
	// burst pushes a Go heap depends on where the collector was, so the
	// peak over several instances is steadier than one instance's.
	PeakRSSMiB float64              `json:"peak_rss_mb"`
	Layers     map[string]float64   `json:"layers,omitempty"`
	ByOpType   map[string]opSummary `json:"by_op_type,omitempty"`
	Spans      []span               `json:"spans,omitempty"`
}

// opSummary is the traced run's view of one op type.
type opSummary struct {
	Ops          int                  `json:"ops"`
	LatencyP50Ms float64              `json:"latency_p50_ms"`
	Layers       map[string]layerTime `json:"layers"`
	Counters     map[string]float64   `json:"counters"`
}

// layerTime is a layer's self time within one op type: the median per
// op, and the share of the op type's total wall time.
type layerTime struct {
	SelfP50Ms float64 `json:"self_p50_ms"`
	Share     float64 `json:"share"`
}

// runParams are the knobs of one run of one workload.
type runParams struct {
	root      string
	flockdBin string
	seed      int64
	duration  time.Duration
	trace     bool
	smoke     bool
	// setups is how often a run sets the system up; setup_s is the median,
	// and the last set-up is the one measured.
	setups int
}

// moreSetups reports whether set-up number i (from 0) is still to be
// done: at least p.setups, and for a system that is ready in
// milliseconds as many more as fit in a second and a half, so that the
// median of a quick set-up is no noisier than that of a slow one.
func (p runParams) moreSetups(i int, took []float64) bool {
	if i < p.setups {
		return true
	}
	total := 0.0
	for _, s := range took {
		total += s
	}
	return !p.smoke && total < 1.5 && i < 15
}

// minReads is the floor under the measured phase: enough reads for a p95
// with ten samples beyond it.
func (p runParams) minReads() int {
	if p.smoke {
		return 0
	}
	return minSamplesFor(95)
}

// runWorkload generates the inputs, sets the system up, measures it and
// checks it. It returns the measured phase plus the parent-side layer
// figures.
func runWorkload(wl workloadDef, p runParams, workDir string) (*phase, error) {
	corpus, err := loadCorpus(p.root)
	if err != nil {
		return nil, err
	}
	// Reference answers for what the warm-up pass asks; the measured
	// phase repeats the same keys.
	var expect []string
	for cycle := 0; cycle < wl.WarmCycles; cycle++ {
		reqs, err := cycleRequests(wl.Name, corpus, p.seed, 0, cycle)
		if err != nil {
			return nil, err
		}
		for _, r := range reqs {
			expect = append(expect, r.Expect)
		}
	}
	in, db, err := makeInputs(workDir, p.seed, corpus, expect)
	if err != nil {
		return nil, err
	}
	var ph *phase
	if wl.serve() {
		ph, err = runServe(wl, p, workDir, corpus, in, db)
	} else {
		ph, err = runBatchChildren(wl, p, workDir, in)
	}
	if err != nil {
		return nil, err
	}
	if p.trace {
		ph.Layers["storage.ingest_s"] = in.IngestS
		if err := storageSpans(wl, in, p.setups, ph.Layers); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// storageSpans times the calls that load the generated inputs: what
// setup_s is mostly made of.
func storageSpans(wl workloadDef, in *inputs, setups int, layers map[string]float64) error {
	engine := storage.EngineMemory
	if wl.Engine == "disk" {
		engine = storage.EngineDisk
	}
	var loads, opens []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		if _, err := storage.LoadDir(in.CSVDir); err != nil {
			return err
		}
		loads = append(loads, time.Since(start).Seconds())
		start = time.Now()
		if _, _, err := storage.OpenDir(in.SegDir, engine); err != nil {
			return err
		}
		opens = append(opens, time.Since(start).Seconds())
	}
	layers["storage.load_s"] = median(loads)
	layers["storage.open_s"] = median(opens)
	return nil
}

// --- batch: the library path, in a fresh child process ---

// runBatchChildren runs the batch workload in child processes of this
// binary, so that the heap the inputs and reference answers were built
// in does not count towards peak_rss_mb. All but the last child stop
// after set-up.
func runBatchChildren(wl workloadDef, p runParams, workDir string, in *inputs) (*phase, error) {
	raw, err := json.Marshal(in.Refs)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(workDir, "refs.json"), raw, 0o644); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setupTimes []float64
	peak := 0.0 // see phase.PeakRSSMiB
	for i := 0; ; i++ {
		setupOnly := p.moreSetups(i+1, setupTimes)
		args := []string{"-batch-child", "-root", p.root, "-dir", workDir,
			"-seed", strconv.FormatInt(p.seed, 10), "-seconds", fmt.Sprint(p.duration.Seconds()),
			"-trace", boolFlag(p.trace), "-smoke=" + strconv.FormatBool(p.smoke),
			"-setup-only=" + strconv.FormatBool(setupOnly),
			"-launched", strconv.FormatInt(time.Now().UnixNano(), 10)}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("batch child: %w", err)
		}
		ph := &phase{}
		if err := json.Unmarshal(out, ph); err != nil {
			return nil, fmt.Errorf("batch child output: %w", err)
		}
		setupTimes = append(setupTimes, ph.SetupS)
		peak = max(peak, ph.PeakRSSMiB)
		if !setupOnly {
			ph.SetupS, ph.PeakRSSMiB = median(setupTimes), peak
			return ph, nil
		}
	}
}

func boolFlag(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// batchChild is the body of one child: load, warm, and unless
// setupOnly, measure. launched is when the parent started the process.
func batchChild(wl workloadDef, p runParams, workDir string, launched time.Time, setupOnly bool, out io.Writer) error {
	corpus, err := loadCorpus(p.root)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(workDir, "refs.json"))
	if err != nil {
		return err
	}
	refs := map[string]answer{}
	if err := json.Unmarshal(raw, &refs); err != nil {
		return err
	}
	db, err := storage.LoadDir(filepath.Join(workDir, "csv"))
	if err != nil {
		return err
	}
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	sys := &batchSystem{db: db, tr: tr}
	warm, _, err := runLoop(wl, corpus, p.seed, []system{sys}, 0, 0, wl.WarmCycles, 0)
	if err != nil {
		return err
	}
	ph := &phase{SetupS: time.Since(launched).Seconds()}
	if failed, msgs := verify(warm, refs); failed > 0 {
		return fmt.Errorf("warm-up pass failed: %s", strings.Join(msgs, "; "))
	}
	if !setupOnly {
		tr.reset() // the measured phase's spans only
		results, wall, err := runLoop(wl, corpus, p.seed, []system{sys}, wl.WarmCycles, p.duration, 1, p.minReads())
		if err != nil {
			return err
		}
		ph.fill(results, wall, refs, tr)
	}
	if ph.PeakRSSMiB, err = vmHWMMiB(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(ph)
}

// fill derives a phase's figures from the raw op results.
func (ph *phase) fill(results []opResult, wall time.Duration, refs map[string]answer, tr *tracer) {
	ph.WallS = wall.Seconds()
	ph.Attempted = len(results)
	ph.Failed, ph.Messages = verify(results, refs)
	ph.Reads, ph.Writes = latencies(results)
	ph.Layers = map[string]float64{}
	if tr != nil {
		ph.Spans = tr.spans
		ph.ByOpType = summarize(results, tr.spans, ph.Layers)
	}
}

// --- serve: flockd behind HTTP ---

// instance is one flockd that has been set up: started, prepared and
// warmed, with one httpSystem per client.
type instance struct {
	fd      *flockd
	systems []system
	dataDir string
	warm    []opResult
	setupS  float64
}

// setUp launches flockd number i of a run on the generated inputs and
// takes it to ready and warm; the time that takes is setup_s.
func setUp(wl workloadDef, p runParams, workDir string, corpus []flockFile, in *inputs, tr *tracer, i int) (*instance, error) {
	inst := &instance{dataDir: in.SegDir}
	if wl.OwnCopy {
		inst.dataDir = filepath.Join(workDir, fmt.Sprintf("seg-copy-%d", i))
		if err := copyDir(in.SegDir, inst.dataDir); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	fd, err := startFlockd(p.flockdBin, flockdArgs(wl, inst.dataDir)...)
	if err != nil {
		return nil, err
	}
	inst.fd = fd
	handle := ""
	var cold []opResult
	if wl.Prepare != "" {
		src, err := corpusSource(corpus, wl.Prepare)
		if err == nil {
			handle, err = fd.prepare(src)
		}
		if err != nil {
			fd.stop()
			return nil, err
		}
		for j := 0; j < wl.ColdPasses; j++ {
			cold = append(cold, (&httpSystem{fd: fd}).do(request{
				OpType: "cold/" + wl.Prepare, Path: "/query?cache=0", Body: src, Expect: wl.Prepare}))
		}
	}
	for c := 0; c < wl.Clients; c++ {
		inst.systems = append(inst.systems, &httpSystem{fd: fd, handle: handle, tr: tr})
	}
	// One client warms up, so that a cold evaluation runs once, not once
	// per client at the same moment.
	if inst.warm, _, err = runLoop(wl, corpus, p.seed, inst.systems[:1], 0, 0, wl.WarmCycles, 0); err != nil {
		fd.stop()
		return nil, err
	}
	inst.setupS = time.Since(start).Seconds()
	if failed, msgs := verify(append(cold, inst.warm...), in.Refs); failed > 0 {
		fd.stop()
		return nil, fmt.Errorf("warm-up pass failed: %s\n%s", strings.Join(msgs, "; "), fd.log)
	}
	return inst, nil
}

func runServe(wl workloadDef, p runParams, workDir string, corpus []flockFile, in *inputs, db *storage.Database) (*phase, error) {
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}
	var (
		inst       *instance
		setupTimes []float64
		peak       float64 // see phase.PeakRSSMiB
	)
	for i := 0; p.moreSetups(i, setupTimes); i++ {
		if inst != nil {
			if mib, err := inst.fd.peakRSSMiB(); err == nil {
				peak = max(peak, mib)
			}
			inst.fd.stop()
		}
		var err error
		if inst, err = setUp(wl, p, workDir, corpus, in, tr, i); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, inst.setupS)
	}
	fd, systems, dataDir, warm := inst.fd, inst.systems, inst.dataDir, inst.warm
	stopped := false
	defer func() {
		if !stopped {
			fd.stop()
		}
	}()

	ph := &phase{SetupS: median(setupTimes)}
	bytesBefore, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	var before obs.CacheStats
	if err := fd.getJSON("/stats", &before); err != nil {
		return nil, err
	}
	tr.reset() // the measured phase's spans only
	results, wall, err := runLoop(wl, corpus, p.seed, systems, wl.WarmCycles, p.duration, 1, p.minReads())
	if err != nil {
		return nil, err
	}
	ph.fill(results, wall, in.Refs, tr)
	var after obs.CacheStats
	if err := fd.getJSON("/stats", &after); err != nil {
		return nil, err
	}
	if ph.PeakRSSMiB, err = fd.peakRSSMiB(); err != nil {
		return nil, err
	}
	ph.PeakRSSMiB = max(ph.PeakRSSMiB, peak)

	var mut *mutateCheck
	if wl.Name == "serve.mutate-mix" {
		// The final answer against a replay of every acknowledged write,
		// then the same again after a crash.
		mut, err = checkMutations(wl, p, fd, systems[0].(*httpSystem), dataDir, corpus, db, append(warm, results...))
		stopped = true // checkMutations killed and replaced the server, and stopped the replacement
		if err != nil {
			return nil, err
		}
		ph.Attempted += mut.checks
		ph.Failed += len(mut.failures)
		ph.Messages = append(ph.Messages, mut.failures...)
	}
	if p.trace {
		cacheLayers(ph.Layers, before, after)
		if err := shadowFrontEnd(ph.Layers, warm, corpus, db); err != nil {
			return nil, err
		}
		segBytes, err := dirBytes(dataDir)
		if err != nil {
			return nil, err
		}
		posted := int64(0)
		for _, r := range results {
			if r.req.Write && r.err == nil {
				posted += int64(len(r.req.Body))
			}
		}
		if posted > 0 {
			ph.Layers["storage.write_amp"] = float64(segBytes-bytesBefore) / float64(posted)
		}
		ph.Layers["storage.space_amp"] = float64(segBytes) / float64(in.CSVBytes+posted)
		if mut != nil {
			ph.Layers["acked_writes_lost"] = float64(mut.lost)
		}
	}
	return ph, nil
}

func flockdArgs(wl workloadDef, dataDir string) []string {
	return append([]string{"-data-dir", dataDir, "-engine", wl.Engine}, wl.Args...)
}

// cacheLayers turns the /stats deltas over the measured phase into hit
// ratios, and the memo's fill into an occupancy.
func cacheLayers(layers map[string]float64, before, after obs.CacheStats) {
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	layers["serve.plan_hit_ratio"] = ratio(after.PlanHits-before.PlanHits, after.PlanMisses-before.PlanMisses)
	layers["serve.memo_hit_ratio"] = ratio(
		after.MemoExtHits-before.MemoExtHits+after.MemoSurvHits-before.MemoSurvHits,
		after.MemoExtMisses-before.MemoExtMisses+after.MemoSurvMisses-before.MemoSurvMisses)
	if after.MemoMaxBytes > 0 {
		layers["serve.memo_occupancy"] = float64(after.MemoBytes) / float64(after.MemoMaxBytes)
	}
}

// shadowFrontEnd prices the front-end layers flockd runs per request but
// does not report: the same public functions, called here on the same
// request programs. The figures say what one call costs on this
// workload's programs, not how many calls the server's caches saved.
func shadowFrontEnd(layers map[string]float64, reqs []opResult, corpus []flockFile, db *storage.Database) error {
	const reps = 20
	timed := map[string][]float64{}
	lap := func(layer string, start time.Time) time.Time {
		now := time.Now()
		timed[layer] = append(timed[layer], float64(now.Sub(start).Nanoseconds())/1e6)
		return now
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		if r.req.Write || seen[r.req.OpType] {
			continue
		}
		seen[r.req.OpType] = true
		src := r.req.Body
		if !strings.HasPrefix(r.req.Path, "/query") {
			var err error
			if src, err = corpusSource(corpus, r.req.Flock); err != nil {
				return err
			}
		}
		for i := 0; i < reps; i++ {
			t := time.Now()
			fs, err := datalog.ParseFlock(analysis.StripExplain(src))
			if err != nil {
				return err
			}
			t = lap("datalog.parse_ms", t)
			analysis.AnalyzeFlockSource(fs, analysis.Options{DB: db})
			t = lap("analysis.lint_ms", t)
			analysis.CanonicalProgram(fs)
			t = lap("analysis.canon_ms", t)
			flock, err := core.NewWithViews(fs.Views, fs.Query, fs.Filter)
			if err == nil {
				err = flock.CheckDatabase(db)
			}
			if err != nil {
				return err
			}
			t = lap("core.build_ms", t)
			if r.req.Strategy == "static" {
				if _, err := planner.PlanStatic(flock, planner.NewEstimator(db), nil); err != nil {
					return err
				}
				lap("planner.plan_ms", t)
			}
		}
	}
	for layer, xs := range timed {
		layers[layer] = mean(xs)
	}
	return nil
}
