package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"queryflocks/internal/storage"
)

// TestFlockdWorkerHelper is not a test: it is the worker process the
// coordinator E2E tests exec. spawnLocalWorkers re-enters the test
// binary with -test.run anchored here plus "-- <flockd args>", and the
// helper runs the real flockd main loop on those args.
func TestFlockdWorkerHelper(t *testing.T) {
	if os.Getenv("FLOCKD_WORKER_HELPER") != "1" {
		t.Skip("not a worker helper invocation")
	}
	sep := -1
	for i, a := range os.Args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 0 {
		fmt.Fprintln(os.Stderr, "flockd: worker helper started without -- args")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[sep+1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "flockd:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// useHelperWorkers points workerCommand at the test binary for the
// duration of one test.
func useHelperWorkers(t *testing.T) {
	t.Helper()
	orig := workerCommand
	workerCommand = func() (string, []string, error) {
		return os.Args[0], []string{"-test.run=^TestFlockdWorkerHelper$", "--"}, nil
	}
	t.Cleanup(func() { workerCommand = orig })
}

// TestSpawnRendezvousHelper is not a test: it is a stand-in worker for
// TestSpawnLocalWorkersStartsAllBeforeAwaiting. Its first argument after
// "--" is a scratch directory; it marks itself started there, then
// announces a fake address derived from its -shard-index only once every
// worker of the fleet is started — the later the index, the sooner — and
// serves nothing until it is TERMed. A "fail" marker in the directory
// makes worker 1 exit without announcing.
func TestSpawnRendezvousHelper(t *testing.T) {
	if os.Getenv("FLOCKD_WORKER_HELPER") != "1" {
		t.Skip("not a worker helper invocation")
	}
	var dir string
	idx, count := -1, -1
	for i, a := range os.Args {
		switch {
		case a == "--" && i+1 < len(os.Args):
			dir = os.Args[i+1]
		case a == "-shard-index" && i+1 < len(os.Args):
			idx, _ = strconv.Atoi(os.Args[i+1])
		case a == "-shard-count" && i+1 < len(os.Args):
			count, _ = strconv.Atoi(os.Args[i+1])
		}
	}
	if dir == "" || idx < 0 || count < 1 {
		fmt.Fprintln(os.Stderr, "rendezvous helper: bad args", os.Args)
		os.Exit(2)
	}
	if err := os.WriteFile(fmt.Sprintf("%s/started-%d", dir, idx), []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
		os.Exit(2)
	}
	if _, err := os.Stat(dir + "/fail"); err == nil && idx == 1 {
		os.Exit(3)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if started, _ := filepath.Glob(dir + "/started-*"); len(started) == count {
			break
		}
		if time.Now().After(deadline) {
			os.Exit(4) // the fleet was not started side by side
		}
	}
	time.Sleep(time.Duration(count-1-idx) * 30 * time.Millisecond)
	fmt.Fprintf(os.Stderr, "flockd: listening on 127.0.0.1:%d (fake)\n", 1000+idx)
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	<-term
	os.Exit(0)
}

// TestSpawnLocalWorkersStartsAllBeforeAwaiting is the regression for
// -spawn-workers paying N serial data loads: every stand-in worker
// refuses to announce until the whole fleet is running, so a spawner that
// awaits worker i before exec'ing worker i+1 fails. Addresses must come
// back in shard-index order whatever order the announcements arrive in,
// and a failed start must leave no worker behind.
func TestSpawnLocalWorkersStartsAllBeforeAwaiting(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	orig := workerCommand
	t.Cleanup(func() { workerCommand = orig })
	f := newFlagSet()
	if err := f.fs.Parse([]string{"-data", "unused"}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	workerCommand = func() (string, []string, error) {
		return os.Args[0], []string{"-test.run=^TestSpawnRendezvousHelper$", "--", dir}, nil
	}
	out := &syncWriter{}
	addrs, cleanup, err := spawnLocalWorkers(context.Background(), f, 3, out)
	if err != nil {
		t.Fatalf("spawnLocalWorkers: %v\noutput: %s", err, out.String())
	}
	cleanup()
	if want := []string{"127.0.0.1:1000", "127.0.0.1:1001", "127.0.0.1:1002"}; !reflect.DeepEqual(addrs, want) {
		t.Errorf("addresses %v, want shard-index order %v", addrs, want)
	}

	dir = t.TempDir()
	if err := os.WriteFile(dir+"/fail", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := spawnLocalWorkers(context.Background(), f, 3, out); err == nil || !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("a worker that dies before announcing must fail the spawn naming it, got %v", err)
	}
	for i := 0; i < 3; i++ {
		raw, err := os.ReadFile(fmt.Sprintf("%s/started-%d", dir, i))
		if err != nil {
			t.Fatalf("worker %d was never started: %v", i, err)
		}
		pid, _ := strconv.Atoi(string(raw))
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("worker %d (pid %d) outlived the failed spawn: kill(0) = %v", i, pid, err)
		}
	}
}

// writeBasketsDir materializes the test workload as a CSV directory every
// cluster process loads identically.
func writeBasketsDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := storage.WriteCSVFile(basketsDB(t).MustRelation("baskets"), dir+"/baskets.csv"); err != nil {
		t.Fatal(err)
	}
	return dir
}

// startFlockd launches run() in a goroutine and polls the announcement
// for the bound address. The returned stop cancels and waits for exit.
func startFlockd(t *testing.T, args []string) (addr string, out *syncWriter, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out = &syncWriter{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, out) }()
	deadline := time.Now().Add(30 * time.Second)
	for addr == "" {
		select {
		case err := <-done:
			cancel()
			t.Fatalf("flockd %v exited early: %v\noutput: %s", args, err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("flockd %v: no listen announcement; output: %s", args, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "flockd: listening on ") {
				addr = strings.Fields(line)[3]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop = func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			return fmt.Errorf("flockd %v did not exit after cancel", args)
		}
	}
	return addr, out, stop
}

func queryAt(t *testing.T, addr, query, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/query"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", addr, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

// TestCoordinatorSpawnWorkersE2E is the full multi-process path: a
// coordinator execs two local workers, scatters the FILTER computation,
// and the merged answer is bit-identical to a single-node flockd over
// the same data — for the direct strategy and an executed static plan.
func TestCoordinatorSpawnWorkersE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	useHelperWorkers(t)
	dir := writeBasketsDir(t)

	soloAddr, _, stopSolo := startFlockd(t, []string{"-data", dir, "-addr", "127.0.0.1:0"})
	defer stopSolo()
	coordAddr, _, stopCoord := startFlockd(t, []string{
		"-data", dir, "-addr", "127.0.0.1:0", "-coordinator", "-spawn-workers", "2"})

	for _, strategy := range []string{"direct", "static"} {
		wantStatus, wantPayload := queryAt(t, soloAddr, "?strategy="+strategy, pairCountFlock)
		gotStatus, gotPayload := queryAt(t, coordAddr, "?strategy="+strategy, pairCountFlock)
		if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
			t.Fatalf("%s: solo %d, coordinator %d\n%s", strategy, wantStatus, gotStatus, gotPayload)
		}
		var want, got queryResponse
		if err := json.Unmarshal(wantPayload, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(gotPayload, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Columns, want.Columns) {
			t.Fatalf("%s: sharded answer differs from single node\nsolo: %v\ncluster: %v", strategy, want.Rows, got.Rows)
		}
		if got.Report == nil || got.Report.Cluster == nil {
			t.Fatalf("%s: merged report is missing the cluster block: %s", strategy, gotPayload)
		}
		if c := got.Report.Cluster; c.Shards != 2 || c.Scattered < 1 || c.Partial {
			t.Fatalf("%s: cluster block %+v, want 2 shards, >=1 scattered, not partial", strategy, c)
		}
	}

	// /mutate is refused in coordinator mode: the workers derived their
	// partitions from their own data load.
	resp, err := http.Post("http://"+coordAddr+"/mutate/baskets", "text/csv", strings.NewReader("9999,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("coordinator /mutate: status %d, want 501", resp.StatusCode)
	}

	// Shutdown TERMs and reaps the spawned workers.
	if err := stopCoord(); err != nil {
		t.Fatalf("coordinator shutdown: %v", err)
	}
}

// TestCoordinatorDeadShard502AndRecovery kills a worker mid-cluster and
// asserts the failure contract: a structured 502 naming the dead shard
// (never a hang or a silent partial answer), then full recovery once the
// worker is back.
func TestCoordinatorDeadShard502AndRecovery(t *testing.T) {
	dir := writeBasketsDir(t)

	w0Addr, _, stopW0 := startFlockd(t, []string{
		"-data", dir, "-addr", "127.0.0.1:0", "-shard-index", "0", "-shard-count", "2"})
	w1Addr, _, stopW1 := startFlockd(t, []string{
		"-data", dir, "-addr", "127.0.0.1:0", "-shard-index", "1", "-shard-count", "2"})
	defer stopW1()

	coordAddr, _, stopCoord := startFlockd(t, []string{
		"-data", dir, "-addr", "127.0.0.1:0", "-coordinator", "-shards", w0Addr + "," + w1Addr,
		"-shard-retries", "1", "-shard-backoff", "10ms", "-shard-timeout", "5s"})
	defer stopCoord()

	status, payload := queryAt(t, coordAddr, "", pairCountFlock)
	var healthy queryResponse
	if err := json.Unmarshal(payload, &healthy); err != nil || status != http.StatusOK {
		t.Fatalf("healthy cluster: status %d: %s", status, payload)
	}

	// Kill worker 0 and query again: a structured 502 naming the shard.
	if err := stopW0(); err != nil {
		t.Fatalf("stopping worker 0: %v", err)
	}
	status, payload = queryAt(t, coordAddr, "", pairCountFlock)
	if status != http.StatusBadGateway {
		t.Fatalf("dead shard: status %d, want 502: %s", status, payload)
	}
	var er errorResponse
	if err := json.Unmarshal(payload, &er); err != nil || er.Error == "" {
		t.Fatalf("dead shard: unstructured error: %s", payload)
	}
	if er.Shard != w0Addr || !strings.Contains(er.Error, w0Addr) {
		t.Fatalf("dead shard: error %+v does not name the dead shard %s", er, w0Addr)
	}

	// Restart worker 0 on its old address (the closed listener's port is
	// immediately rebindable); the same cluster answers again.
	_, _, stopW0b := startFlockd(t, []string{
		"-data", dir, "-addr", w0Addr, "-shard-index", "0", "-shard-count", "2"})
	defer stopW0b()
	status, payload = queryAt(t, coordAddr, "", pairCountFlock)
	var recovered queryResponse
	if err := json.Unmarshal(payload, &recovered); err != nil || status != http.StatusOK {
		t.Fatalf("recovered cluster: status %d: %s", status, payload)
	}
	if !reflect.DeepEqual(recovered.Rows, healthy.Rows) {
		t.Fatal("recovered cluster answer differs from the healthy answer")
	}
}

// TestCoordinatorAllowPartialFlag: with -allow-partial a dead shard
// degrades the answer instead of failing it, and the report says so.
func TestCoordinatorAllowPartialFlag(t *testing.T) {
	dir := writeBasketsDir(t)
	w0Addr, _, stopW0 := startFlockd(t, []string{
		"-data", dir, "-addr", "127.0.0.1:0", "-shard-index", "0", "-shard-count", "2"})
	w1Addr, _, stopW1 := startFlockd(t, []string{
		"-data", dir, "-addr", "127.0.0.1:0", "-shard-index", "1", "-shard-count", "2"})
	defer stopW1()
	coordAddr, _, stopCoord := startFlockd(t, []string{
		"-data", dir, "-addr", "127.0.0.1:0", "-coordinator", "-shards", w0Addr + "," + w1Addr,
		"-allow-partial", "-shard-retries", "0", "-shard-timeout", "5s"})
	defer stopCoord()

	if err := stopW0(); err != nil {
		t.Fatal(err)
	}
	status, payload := queryAt(t, coordAddr, "", pairCountFlock)
	var qr queryResponse
	if err := json.Unmarshal(payload, &qr); err != nil || status != http.StatusOK {
		t.Fatalf("allow-partial: status %d: %s", status, payload)
	}
	c := qr.Report.Cluster
	if c == nil || !c.Partial || len(c.Failed) != 1 || c.Failed[0] != w0Addr {
		t.Fatalf("allow-partial: cluster block %+v, want partial=true failed=[%s]", c, w0Addr)
	}
}

// TestClusterFlagValidation covers the new knobs' structural rules.
func TestClusterFlagValidation(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{"-coordinator"},                                        // needs -shards or -spawn-workers
		{"-coordinator", "-shards", "a:1", "-spawn-workers", "2"}, // not both
		{"-shards", "a:1"},                                      // needs -coordinator
		{"-spawn-workers", "2"},                                 // needs -coordinator
		{"-shard-index", "0"},                                   // needs -shard-count
		{"-shard-count", "2"},                                   // index out of range (default -1)
		{"-shard-count", "2", "-shard-index", "2"},              // index out of range
		{"-shard-count", "2", "-shard-index", "0", "-coordinator", "-shards", "a:1"}, // worker xor coordinator
		{"-shard-by", "rel:notanumber"},
		{"-shard-by", ":1"},
		{"-shard-retries", "-1"},
		{"-shard-timeout", "-1s"},
	} {
		if err := run(ctx, args, &strings.Builder{}); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestWorkerArgsForwardBounds is the regression for spawned workers running
// unbudgeted: the coordinator's -max-tuples must reach every worker's
// command line beside -workers and -timeout, so shard work is bounded like
// the coordinator's own.
func TestWorkerArgsForwardBounds(t *testing.T) {
	f := newFlagSet()
	if err := f.fs.Parse([]string{"-data", "d", "-max-tuples", "1234", "-workers", "3", "-timeout", "7s"}); err != nil {
		t.Fatal(err)
	}
	args := strings.Join(workerArgs(f, 1, 2), " ")
	for _, want := range []string{"-max-tuples 1234", "-workers 3", "-timeout 7s", "-shard-index 1", "-shard-count 2"} {
		if !strings.Contains(args, want) {
			t.Errorf("worker args %q lack %q", args, want)
		}
	}
}
