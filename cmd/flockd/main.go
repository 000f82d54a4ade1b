// Command flockd serves query-flock evaluation over HTTP: load a
// directory of CSV relations once, then answer flock programs posted by
// clients. It is the long-running face of the engine — the cooperative
// cancellation layer (contexts, wall deadlines, tuple and row budgets)
// keeps one runaway query from taking the service down, and graceful
// shutdown drains in-flight queries before exiting.
//
// Usage:
//
//	flockd -data DIR [-addr localhost:8080] [-timeout 30s]
//	       [-max-queries 4] [-max-tuples 0] [-max-rows 0]
//	       [-workers 0] [-plan-cache 256] [-memo-mb 64] [-pprof addr]
//	flockd -data-dir DIR [-engine memory|disk] [...]
//
// With -data-dir the server opens a data directory created by flockgen
// -data-dir (column files + dictionary + catalog) under the chosen
// storage engine; -engine disk reads each relation's column file at its
// first touch instead of materializing it at open. Mutations then append durably to the
// directory's delta layer and prepared flocks are persisted in it, so
// both survive restarts.
//
// Endpoints:
//
//	GET  /healthz          liveness probe
//	GET  /rels             loaded relations (JSON: name, columns, rows)
//	GET  /stats            serving-layer cache counters (obs.CacheStats)
//	POST /query            flock program in the body; evaluates and
//	                       returns the answer plus an obs.RunReport
//	                       (?strategy=, ?timeout= tighten per request;
//	                       ?cache=0 bypasses the caches)
//	POST /prepare          registers a prepared flock, returns its handle
//	POST /invoke/{handle}  evaluates a prepared flock without re-parsing,
//	                       re-linting, or re-planning; optional JSON body
//	                       {"threshold": N} rebinds the filter threshold
//	POST /mutate/{rel}     appends CSV rows to a relation (copy-on-write)
//	                       and bumps the data version, invalidating every
//	                       cached plan and memoized subquery result
//
// Caching: -plan-cache bounds the LRU plan cache (entries; 0 disables)
// and -memo-mb the cross-request candidate-subquery memo (MiB of
// estimated relation payload; 0 disables). Cache keys embed the
// canonical program text and the data version, so answers are identical
// with caches hot, cold, or disabled.
//
// Statuses: 400 parse/validation errors, 404 unknown handle or relation,
// 413 body over 1 MiB, 503 over the -max-queries cap, 504 wall deadline
// or client disconnect, 422 a -max-tuples/-max-rows budget was exceeded,
// 500 a recovered engine panic.
//
// SIGINT/SIGTERM stop accepting connections, drain in-flight queries
// (bounded by -drain), and exit. -pprof serves net/http/pprof and expvar
// (including flock_last_report) on a second address.
//
// Cluster mode shards one flockd across worker processes:
//
//	flockd -data DIR -shard-index I -shard-count N [-shard-by rel[:col]]
//	flockd -data DIR -coordinator -shards host:port,host:port[,...]
//	flockd -data DIR -coordinator -spawn-workers N
//
// Every process loads the same data; a worker restricts itself to its
// contiguous range partition of the sharded relation (the map is a
// deterministic function of the data, so coordinator and workers agree
// without a handshake) and serves POST /partial, the read-only
// partial-group-state endpoint. The coordinator answers the normal query
// API, scattering each FILTER computation it can legally partition to
// the shards and merging their partial states in shard order — answers
// are bit-identical at every shard count. Computations the shard map
// cannot partition run coordinator-local. -spawn-workers execs N local
// workers instead of connecting to an externally managed fleet. A dead
// shard fails the query with a 502 naming the shard; -allow-partial
// instead serves the surviving shards' merge with partial=true in the
// report. /mutate is refused (501) in coordinator mode: workers derive
// their partition from their own data load, so data changes require a
// cluster restart.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"queryflocks/internal/cluster"
	"queryflocks/internal/obs"
	"queryflocks/internal/storage"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "flockd:", err)
		os.Exit(1)
	}
}

// run parses flags, loads the database, and serves until ctx is
// canceled; it returns after in-flight queries drain. The bound address
// is announced on out ("flockd: listening on ...") so callers — and the
// tests — can use -addr with port 0.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := newFlagSet()
	if err := fs.fs.Parse(args); err != nil {
		return err
	}
	if err := fs.validate(); err != nil {
		return err
	}

	if *fs.pprof != "" {
		addr, err := obs.StartDebugServer(*fs.pprof)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "flockd: pprof/expvar on http://%s/debug/pprof/\n", addr)
	}

	var (
		db     *storage.Database
		dir    *storage.Dir
		source string
		err    error
	)
	if *fs.dataDir != "" {
		// A data directory created by flockgen -data-dir (or
		// storage.CreateDir): column files, dictionary, catalog, and deltas,
		// served by the chosen engine. Mutations append to the delta layer
		// and survive restarts, as do prepared-flock registrations.
		engine, perr := storage.ParseEngine(*fs.engine)
		if perr != nil {
			return perr
		}
		db, dir, err = storage.OpenDir(*fs.dataDir, engine)
		source = fmt.Sprintf("%s (engine=%s)", *fs.dataDir, engine)
	} else {
		db, err = storage.LoadDir(*fs.data)
		source = *fs.data
	}
	if err != nil {
		return err
	}
	if len(db.Names()) == 0 {
		return fmt.Errorf("no relations found in %s", source)
	}

	if *fs.shardCount > 0 {
		// Worker mode: cut the loaded database down to this shard's
		// partition. The map is rebuilt from the full data, so every
		// worker — and the coordinator — derives the same assignment.
		rel, col, perr := cluster.ParseShardBy(*fs.shardBy)
		if perr != nil {
			return perr
		}
		m, merr := cluster.BuildMap(db, rel, col, *fs.shardCount)
		if merr != nil {
			return merr
		}
		db, err = m.Restrict(db, *fs.shardIndex)
		if err != nil {
			return err
		}
		source = fmt.Sprintf("%s, shard %d/%d of %s", source, *fs.shardIndex, *fs.shardCount, m)
	}

	var coord *cluster.Coordinator
	if *fs.coordinator {
		shards := splitShards(*fs.shards)
		if *fs.spawnWorkers > 0 {
			spawned, cleanup, serr := spawnLocalWorkers(ctx, fs, *fs.spawnWorkers, out)
			if serr != nil {
				return serr
			}
			defer cleanup()
			shards = spawned
		}
		rel, col, perr := cluster.ParseShardBy(*fs.shardBy)
		if perr != nil {
			return perr
		}
		m, merr := cluster.BuildMap(db, rel, col, len(shards))
		if merr != nil {
			return merr
		}
		coord = cluster.New(m, &cluster.Client{
			Shards:  shards,
			Timeout: *fs.shardTimeout,
			Retries: *fs.shardRetries,
			Backoff: *fs.shardBackoff,
		}, db.Names())
		coord.AllowPartial = *fs.allowPartial
		fmt.Fprintf(out, "flockd: coordinating %d shard(s) over %s (%s)\n",
			len(shards), m, strings.Join(shards, ","))
	}

	srv := newServer(db, serverConfig{
		Timeout:       *fs.timeout,
		MaxQueries:    *fs.maxQueries,
		MaxTuples:     *fs.maxTuples,
		MaxRows:       *fs.maxRows,
		Workers:       *fs.workers,
		PlanCacheSize: *fs.planCache,
		MemoMaxBytes:  int64(*fs.memoMB) << 20,
		Dir:           dir,
		Cluster:       coord,
	})
	srv.pipe.Restore(func(format string, args ...any) {
		fmt.Fprintf(out, "flockd: "+format+"\n", args...)
	})

	ln, err := net.Listen("tcp", *fs.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "flockd: listening on %s (%d relations from %s)\n",
		ln.Addr(), len(db.Names()), source)
	return serveHTTP(ctx, ln, srv.handler(), *fs.drain, out)
}

// serveHTTP runs the HTTP server on ln until ctx is canceled, then shuts
// down gracefully: the listener closes immediately, in-flight requests
// get up to drain to finish, and only then does serveHTTP return.
func serveHTTP(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, out io.Writer) error {
	httpSrv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "flockd: shutting down, draining in-flight queries")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete after %v: %w", drain, err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	return nil
}

// flockdFlags groups the flag set so run and the tests share one
// definition of the knobs and their validation.
type flockdFlags struct {
	fs         *flag.FlagSet
	data       *string
	dataDir    *string
	engine     *string
	addr       *string
	timeout    *time.Duration
	drain      *time.Duration
	maxQueries *int
	maxTuples  *int
	maxRows    *int
	workers    *int
	planCache  *int
	memoMB     *int
	pprof      *string

	coordinator  *bool
	shards       *string
	spawnWorkers *int
	shardBy      *string
	shardIndex   *int
	shardCount   *int
	allowPartial *bool
	shardTimeout *time.Duration
	shardRetries *int
	shardBackoff *time.Duration
}

func newFlagSet() *flockdFlags {
	fs := flag.NewFlagSet("flockd", flag.ContinueOnError)
	f := &flockdFlags{fs: fs}
	f.data = fs.String("data", ".", "directory of CSV relations (header row = column names)")
	f.dataDir = fs.String("data-dir", "", "data directory created by flockgen -data-dir; overrides -data and makes /mutate and /prepare durable")
	f.engine = fs.String("engine", "memory", "storage engine for -data-dir: memory (materialize at open) or disk (read column files at first touch)")
	f.addr = fs.String("addr", "localhost:8080", "listen address (port 0 picks a free port)")
	f.timeout = fs.Duration("timeout", 30*time.Second, "per-query wall-clock limit (0 = none); ?timeout= may tighten it")
	f.drain = fs.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight queries")
	f.maxQueries = fs.Int("max-queries", 4, "concurrent-query admission cap; excess requests get 503 (0 = no cap)")
	f.maxTuples = fs.Int("max-tuples", 0, "per-query live-tuple budget (0 = unlimited)")
	f.maxRows = fs.Int("max-rows", 0, "per-query answer-row budget (0 = unlimited)")
	f.workers = fs.Int("workers", 0, "in-process parts per FILTER computation, split on its first parameter (0 = one per CPU, 1 = sequential)")
	f.planCache = fs.Int("plan-cache", 256, "LRU plan-cache capacity in entries (0 = disabled)")
	f.memoMB = fs.Int("memo-mb", 64, "candidate-subquery memo bound in MiB (0 = disabled)")
	f.pprof = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	f.coordinator = fs.Bool("coordinator", false, "coordinate a shard cluster: scatter FILTER computations to -shards and merge their partial states")
	f.shards = fs.String("shards", "", "comma-separated worker addresses in shard-index order (coordinator mode)")
	f.spawnWorkers = fs.Int("spawn-workers", 0, "exec this many local worker processes instead of connecting to -shards (coordinator mode)")
	f.shardBy = fs.String("shard-by", "", "relation to range-shard, as rel or rel:col (default: the largest relation, column 0)")
	f.shardIndex = fs.Int("shard-index", -1, "this worker's shard index in [0,-shard-count)")
	f.shardCount = fs.Int("shard-count", 0, "worker mode: restrict the loaded data to shard -shard-index of this many")
	f.allowPartial = fs.Bool("allow-partial", false, "serve degraded answers when some (not all) shards fail, marked partial in the report")
	f.shardTimeout = fs.Duration("shard-timeout", 10*time.Second, "per-attempt limit for one shard call")
	f.shardRetries = fs.Int("shard-retries", 2, "additional attempts after a retryable shard failure")
	f.shardBackoff = fs.Duration("shard-backoff", 100*time.Millisecond, "linear backoff unit between shard retries")
	return f
}

func (f *flockdFlags) validate() error {
	if *f.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %v)", *f.timeout)
	}
	if *f.drain <= 0 {
		return fmt.Errorf("-drain must be > 0 (got %v)", *f.drain)
	}
	if *f.maxQueries < 0 {
		return fmt.Errorf("-max-queries must be >= 0 (got %d)", *f.maxQueries)
	}
	if *f.maxTuples < 0 || *f.maxRows < 0 {
		return fmt.Errorf("-max-tuples and -max-rows must be >= 0")
	}
	if *f.planCache < 0 || *f.memoMB < 0 {
		return fmt.Errorf("-plan-cache and -memo-mb must be >= 0")
	}
	if _, err := storage.ParseEngine(*f.engine); err != nil {
		return err
	}
	if *f.engine == "disk" && *f.dataDir == "" {
		return fmt.Errorf("-engine disk requires -data-dir (CSV loading is memory-only)")
	}
	if _, _, err := cluster.ParseShardBy(*f.shardBy); err != nil {
		return err
	}
	if *f.shardCount < 0 || *f.spawnWorkers < 0 || *f.shardRetries < 0 {
		return fmt.Errorf("-shard-count, -spawn-workers, and -shard-retries must be >= 0")
	}
	if *f.shardTimeout < 0 || *f.shardBackoff < 0 {
		return fmt.Errorf("-shard-timeout and -shard-backoff must be >= 0")
	}
	if *f.shardCount > 0 {
		if *f.coordinator {
			return fmt.Errorf("-shard-count is worker mode; it cannot be combined with -coordinator")
		}
		if *f.shardIndex < 0 || *f.shardIndex >= *f.shardCount {
			return fmt.Errorf("-shard-index must be in [0,%d) (got %d)", *f.shardCount, *f.shardIndex)
		}
	} else if *f.shardIndex >= 0 {
		return fmt.Errorf("-shard-index requires -shard-count")
	}
	if *f.coordinator {
		haveShards, haveSpawn := *f.shards != "", *f.spawnWorkers > 0
		if haveShards == haveSpawn {
			return fmt.Errorf("-coordinator requires exactly one of -shards or -spawn-workers")
		}
	} else if *f.shards != "" || *f.spawnWorkers > 0 {
		return fmt.Errorf("-shards and -spawn-workers require -coordinator")
	}
	return nil
}

// splitShards parses the -shards list, tolerating blanks from trailing
// commas.
func splitShards(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// workerCommand resolves the executable (plus leading args) used to exec
// one local worker. The tests override it to re-enter the test binary.
var workerCommand = func() (string, []string, error) {
	exe, err := os.Executable()
	return exe, nil, err
}

// workerAnnounceTimeout bounds how long a spawned worker may take to
// announce its bound address.
const workerAnnounceTimeout = 30 * time.Second

// spawnLocalWorkers execs n worker flockds against the same data flags as
// the coordinator, each on a free port, and returns their addresses in
// shard-index order. All workers are started before any is awaited, so
// they load the data set side by side. Workers announce "flockd:
// listening on ADDR ..." on stderr; the announcement is parsed and the
// rest of each worker's output is forwarded to out. The cleanup function
// TERMs and reaps the fleet; a failed start runs it before returning.
func spawnLocalWorkers(ctx context.Context, f *flockdFlags, n int, out io.Writer) ([]string, func(), error) {
	exe, baseArgs, err := workerCommand()
	if err != nil {
		return nil, nil, err
	}
	var procs []*exec.Cmd
	cleanup := func() {
		for _, c := range procs {
			if c.Process != nil {
				c.Process.Signal(syscall.SIGTERM)
			}
		}
		for _, c := range procs {
			c.Wait()
		}
	}
	stderrs := make([]io.Reader, n)
	for i := range stderrs {
		args := append(append([]string(nil), baseArgs...), workerArgs(f, i, n)...)
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), "FLOCKD_WORKER_HELPER=1")
		stderr, perr := cmd.StderrPipe()
		if perr == nil {
			perr = cmd.Start()
		}
		if perr != nil {
			cleanup()
			return nil, nil, fmt.Errorf("spawning worker %d: %w", i, perr)
		}
		procs = append(procs, cmd)
		stderrs[i] = stderr
	}
	addrs := make([]string, n)
	for i, stderr := range stderrs {
		addr, aerr := awaitAnnouncement(ctx, stderr, out)
		if aerr != nil {
			cleanup()
			return nil, nil, fmt.Errorf("worker %d: %w", i, aerr)
		}
		addrs[i] = addr
		fmt.Fprintf(out, "flockd: worker %d/%d up on %s\n", i, n, addr)
	}
	return addrs, cleanup, nil
}

// workerArgs derives one worker's command line from the coordinator's
// flags: same data source, same shard map inputs, same per-evaluation
// bounds (a shard's /partial work is budgeted like the coordinator's own),
// a free port.
func workerArgs(f *flockdFlags, idx, count int) []string {
	args := []string{}
	if *f.dataDir != "" {
		args = append(args, "-data-dir", *f.dataDir, "-engine", *f.engine)
	} else {
		args = append(args, "-data", *f.data)
	}
	if *f.shardBy != "" {
		args = append(args, "-shard-by", *f.shardBy)
	}
	return append(args,
		"-addr", "127.0.0.1:0",
		"-shard-index", strconv.Itoa(idx),
		"-shard-count", strconv.Itoa(count),
		"-workers", strconv.Itoa(*f.workers),
		"-timeout", (*f.timeout).String(),
		"-max-tuples", strconv.Itoa(*f.maxTuples),
	)
}

// awaitAnnouncement scans a worker's stderr for the listen announcement,
// then keeps draining the pipe to out in the background.
func awaitAnnouncement(ctx context.Context, r io.Reader, out io.Writer) (string, error) {
	type hit struct {
		addr string
		err  error
	}
	ch := make(chan hit, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "flockd: listening on "); ok {
				if i := strings.IndexByte(rest, ' '); i > 0 {
					rest = rest[:i]
				}
				ch <- hit{addr: rest}
				// Keep the pipe drained so the worker never blocks on a
				// full stderr buffer.
				for sc.Scan() {
					fmt.Fprintln(out, sc.Text())
				}
				return
			}
			fmt.Fprintln(out, line)
		}
		ch <- hit{err: fmt.Errorf("worker exited before announcing its address")}
	}()
	select {
	case h := <-ch:
		return h.addr, h.err
	case <-ctx.Done():
		return "", ctx.Err()
	case <-time.After(workerAnnounceTimeout):
		return "", fmt.Errorf("no listen announcement within %v", workerAnnounceTimeout)
	}
}
