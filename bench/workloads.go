package main

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// workloadDef is one named workload: which system it drives and how.
type workloadDef struct {
	Name string
	Why  string
	// Clients is the number of closed loops; never above the reference
	// box's two cores.
	Clients int
	// WarmCycles is the untimed pass that ends set-up: enough cycles to
	// touch every request the measured phase repeats.
	WarmCycles int
	// ColdPasses is how often set-up first evaluates the prepared flock
	// with cache=0. A workload whose only cold evaluation is its first
	// request has a peak RSS set by how one allocation burst happened to
	// meet the garbage collector; the peak over several bursts is steady.
	ColdPasses int
	// Serve workloads: flockd's engine, extra flags, the flock to
	// /prepare, and whether flockd gets its own copy of the data dir.
	Engine  string
	Args    []string
	Prepare string
	OwnCopy bool
}

func (w workloadDef) serve() bool { return w.Engine != "" }

var workloads = []workloadDef{
	{
		Name:    "batch.corpus",
		Why:     "six flocks x direct/static/dynamic through the library path flockql uses, memory engine: execution is >=95% of every op, so executor and dictionary changes show here",
		Clients: 1, WarmCycles: 1,
	},
	{
		Name:    "serve.session-warm",
		Why:     "2 clients re-invoke a prepared flock with cycling thresholds against flockd: every request is a plan-cache and memo hit, so HTTP, parse, canonicalize, lookup and encode are the whole cost",
		Clients: 2, WarmCycles: 3, ColdPasses: 5, Engine: "memory", Prepare: fig2,
	},
	{
		Name:    "serve.disk-cold",
		Why:     "the batch op list posted to flockd -engine disk with cache=0: the disk engine's row-streaming path with parse, lint and plan paid per request",
		Clients: 1, WarmCycles: 1, Engine: "disk",
	},
	{
		Name:    "serve.mutate-mix",
		Why:     "4 invokes then 1 durable 5-row mutate, repeated, on flockd -engine disk with caches on: each write bumps the data version, so one read in four is cold and three are warm",
		Clients: 1, WarmCycles: 1, Engine: "disk", Prepare: fig3, OwnCopy: true,
	},
	{
		Name:    "serve.sharded-2",
		Why:     "four scattered and two coordinator-local ops against a 2-shard flockd cluster with cache=0: the only workload where scatter, partial-state transfer and shard-order merge do most of the work",
		Clients: 1, WarmCycles: 1, Engine: "memory",
		// -shard-by is explicit: the default (largest relation) is a
		// medical relation at this size, and then nothing scatters.
		Args: []string{"-coordinator", "-spawn-workers", "2", "-shard-by", "baskets:0"},
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// system is whatever answers ops: the in-process library path or a
// flockd behind HTTP. One value serves one client.
type system interface {
	do(request) opResult
}

// runLoop drives one closed loop per system: a client sends its next
// request only when the previous one has been answered. Every client
// runs whole cycles, so the op mix is the same however long the run,
// and stops at the first cycle boundary after the duration has passed
// and its share of minReads reads is done. Results are in send order per
// client, clients concatenated.
func runLoop(wl workloadDef, corpus []flockFile, seed int64, systems []system, firstCycle int,
	duration time.Duration, minCycles, minReads int) ([]opResult, time.Duration, error) {

	perClient := make([][]opResult, len(systems))
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	start := time.Now()
	for c, sys := range systems {
		wg.Add(1)
		go func(c int, sys system) {
			defer wg.Done()
			reads := 0
			for cycle := 0; ; cycle++ {
				enough := cycle >= minCycles && reads*len(systems) >= minReads
				if enough && time.Since(start) >= duration {
					return
				}
				reqs, err := cycleRequests(wl.Name, corpus, seed, c, firstCycle+cycle)
				if err != nil {
					errs[c] = err
					return
				}
				for _, r := range reqs {
					perClient[c] = append(perClient[c], sys.do(r))
					if !r.Write {
						reads++
					}
				}
			}
		}(c, sys)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []opResult
	for c := range systems {
		if errs[c] != nil {
			return nil, 0, errs[c]
		}
		all = append(all, perClient[c]...)
	}
	return all, wall, nil
}

// verify counts the ops whose outcome is wrong: an error, or answer rows
// that differ from the reference. Reads without a reference key (the
// mutate mix, whose data changes under it) must agree with the other
// reads made at the same data version; the final version is checked
// against an in-process replay by the caller.
func verify(results []opResult, refs map[string]answer) (failed int, messages []string) {
	note := func(format string, args ...any) {
		failed++
		if len(messages) < 5 {
			messages = append(messages, fmt.Sprintf(format, args...))
		}
	}
	var atVersion *answer
	for i := range results {
		r := &results[i]
		switch {
		case r.err != nil:
			note("%s: %v", r.req.OpType, r.err)
		case r.req.Write:
			atVersion = nil
		case r.req.Expect != "":
			if want, ok := refs[r.req.Expect]; !ok || want != r.got {
				note("%s: got %s, want %s", r.req.OpType, r.got, want)
			}
		case atVersion == nil:
			atVersion = &r.got
		case *atVersion != r.got:
			note("%s: got %s, but %s earlier at the same data version", r.req.OpType, r.got, *atVersion)
		}
	}
	return failed, messages
}

// latencies splits the successful ops' latencies (ms) into reads by op
// type and writes.
func latencies(results []opResult) (reads map[string][]float64, writes []float64) {
	reads = make(map[string][]float64)
	for _, r := range results {
		if r.err != nil {
			continue
		}
		ms := float64(r.latency.Nanoseconds()) / 1e6
		if r.req.Write {
			writes = append(writes, ms)
		} else {
			reads[r.req.OpType] = append(reads[r.req.OpType], ms)
		}
	}
	return reads, writes
}

// typicalLatency is the geometric mean over op types of each type's
// median latency. A workload's op mix is a handful of types whose
// latencies sit far apart; the pooled median of such a mix falls in the
// gap between two types and jumps from one to the other on noise, whereas
// each type's own median is steady. The geometric mean weighs a 10%
// change the same on a 1 ms type as on a 100 ms type.
func typicalLatency(reads map[string][]float64) float64 {
	if len(reads) == 0 {
		return 0
	}
	logSum := 0.0
	for _, xs := range reads {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(reads)))
}

func pooled(reads map[string][]float64) []float64 {
	var all []float64
	for _, xs := range reads {
		all = append(all, xs...)
	}
	return all
}
