package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"queryflocks/internal/obs"
)

// buildFlockd compiles cmd/flockd from the checkout the bench runs in,
// so the binary measured is always the source beside the benchmark.
func buildFlockd(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/flockd")
	cmd.Dir = root
	if raw, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/flockd: %v\n%s", err, raw)
	}
	return nil
}

// flockd is one running server process (a coordinator brings its spawned
// workers along in the same process group).
type flockd struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	log    *lockedBuffer
	done   chan struct{} // closed when the stderr reader has drained
	client *http.Client
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) add(line string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.WriteString(line)
	l.b.WriteByte('\n')
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

const flockdStartTimeout = 60 * time.Second

// live holds the running servers, so an interrupted bench can end them.
var live sync.Map // *flockd -> struct{}

func killLive() {
	live.Range(func(k, _ any) bool {
		syscall.Kill(-k.(*flockd).cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck
		return true
	})
}

// startFlockd execs the server on a free port and returns once /healthz
// answers 200.
func startFlockd(bin string, args ...string) (*flockd, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, args...)...)
	// Own process group: stop can then reach spawned workers even if the
	// coordinator dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	f := &flockd{cmd: cmd, log: &lockedBuffer{}, done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	live.Store(f, struct{}{})
	addrc := make(chan string, 1)
	go func() {
		defer close(f.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			f.log.add(line)
			if rest, ok := strings.CutPrefix(line, "flockd: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default: // only the first announcement is the server's own
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		f.base = "http://" + addr
	case <-f.done:
		f.kill()
		return nil, fmt.Errorf("flockd exited before listening:\n%s", f.log)
	case <-time.After(flockdStartTimeout):
		f.kill()
		return nil, fmt.Errorf("flockd did not listen within %v:\n%s", flockdStartTimeout, f.log)
	}
	deadline := time.Now().Add(flockdStartTimeout)
	for {
		resp, err := f.client.Get(f.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body is irrelevant
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, nil
			}
		}
		if time.Now().After(deadline) {
			f.kill()
			return nil, fmt.Errorf("flockd /healthz never answered 200: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks for a graceful shutdown and waits for the process, and its
// workers, to end.
func (f *flockd) stop() {
	f.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	exited := make(chan struct{})
	go func() {
		<-f.done
		f.cmd.Wait() //nolint:errcheck // exit status of a stopped server is not a result
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		syscall.Kill(-f.cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck
		<-exited
	}
	live.Delete(f)
	f.client.CloseIdleConnections()
}

// kill ends the process group at once, as a crash would: no drain, no
// deferred cleanup.
func (f *flockd) kill() {
	syscall.Kill(-f.cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck
	<-f.done
	f.cmd.Wait() //nolint:errcheck
	live.Delete(f)
	f.client.CloseIdleConnections()
}

// peakRSSMiB sums VmHWM over the server process and the worker processes
// it spawned.
func (f *flockd) peakRSSMiB() (float64, error) {
	pid := f.cmd.Process.Pid
	total, err := vmHWMMiB(pid)
	if err != nil {
		return 0, err
	}
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, p := range stats {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue // the process ended while we were looking
		}
		// pid (comm) state ppid ...; comm may contain spaces and parens.
		i := bytes.LastIndexByte(raw, ')')
		fields := strings.Fields(string(raw[i+1:]))
		if i < 0 || len(fields) < 2 || fields[1] != strconv.Itoa(pid) {
			continue
		}
		child, _ := strconv.Atoi(filepath.Base(filepath.Dir(p)))
		if mib, err := vmHWMMiB(child); err == nil {
			total += mib
		}
	}
	return total, nil
}

// vmHWMMiB reads a process's peak resident set size.
func vmHWMMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// evalResponse is the part of flockd's /query and /invoke payload the
// bench reads. Report is decoded only by the traced run.
type evalResponse struct {
	AnswerRows int            `json:"answer_rows"`
	Rows       [][]string     `json:"rows"`
	WallNs     int64          `json:"wall_ns"`
	Report     *obs.RunReport `json:"report"`
}

// slimResponse is evalResponse without the report, so the untraced run
// skips over the report's bytes instead of building it.
type slimResponse struct {
	AnswerRows int        `json:"answer_rows"`
	Rows       [][]string `json:"rows"`
}

type errorBody struct {
	Error string `json:"error"`
}

// httpSystem sends ops to a running flockd.
type httpSystem struct {
	fd     *flockd
	handle string // prepared flock's handle, substituted for {handle}
	tr     *tracer
	prev   cumulative // valid with one client; see opDetail
}

// post sends one POST and returns the raw body with the time to first
// response byte (zero when untraced) and the time the body was read.
func (h *httpSystem) post(path, body string) (raw []byte, status int, firstByte time.Time, err error) {
	req, err := http.NewRequest(http.MethodPost, h.fd.base+path, strings.NewReader(body))
	if err != nil {
		return nil, 0, firstByte, err
	}
	if h.tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { firstByte = time.Now() },
		}))
	}
	resp, err := h.fd.client.Do(req)
	if err != nil {
		return nil, 0, firstByte, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	return raw, resp.StatusCode, firstByte, err
}

// do performs one op: a read (POST /query or /invoke, answer decoded and
// fingerprinted) or a write (POST /mutate).
func (h *httpSystem) do(req request) opResult {
	res := opResult{req: req}
	path := strings.Replace(req.Path, "{handle}", h.handle, 1)
	op := h.tr.nextOp()
	start := time.Now()
	raw, status, firstByte, err := h.post(path, req.Body)
	if err == nil && status != http.StatusOK {
		var eb errorBody
		json.Unmarshal(raw, &eb) //nolint:errcheck // best effort: the status is the error
		err = fmt.Errorf("%s: status %d: %s", path, status, eb.Error)
	}
	if err != nil {
		res.err, res.latency = err, time.Since(start)
		return res
	}
	if req.Write {
		res.latency = time.Since(start)
		if h.tr != nil {
			root := h.tr.add(op, req.OpType, "bench.op", 0, start, start.Add(res.latency))
			h.tr.add(op, req.OpType, "storage.mutate", root, start, firstByte)
			h.tr.add(op, req.OpType, "client.read_decode", root, firstByte, start.Add(res.latency))
		}
		return res
	}
	if h.tr == nil {
		var slim slimResponse
		res.err = json.Unmarshal(raw, &slim)
		res.latency = time.Since(start)
		res.got = hashRows(slim.Rows)
		return res
	}
	var full evalResponse
	res.err = json.Unmarshal(raw, &full)
	end := time.Now()
	res.latency = end.Sub(start)
	res.got = hashRows(full.Rows)
	if res.err != nil || full.Report == nil {
		return res
	}
	d := &opDetail{ExecNs: full.WallNs, TTFBNs: firstByte.Sub(start).Nanoseconds(), RespBytes: len(raw)}
	d.fromReport(full.Report, &h.prev)
	res.detail = d

	// flockd reports how long its evaluation took but not when; the span
	// is placed so that it ends at the first response byte, which is when
	// encoding — the only server work after it — began to reach us. What
	// is left of the round trip is the serving overhead.
	root := h.tr.add(op, req.OpType, "bench.op", 0, start, end)
	rt := h.tr.add(op, req.OpType, "serve.overhead", root, start, firstByte)
	evalStart := firstByte.Add(-time.Duration(min(d.ExecNs, d.TTFBNs)))
	ex := h.tr.add(op, req.OpType, "physical.exec", rt, evalStart, firstByte)
	if d.Scattered > 0 {
		// With two shards the slower one sets the wait; the rest of a
		// scattered evaluation is the coordinator merging partial states.
		gathered := evalStart.Add(time.Duration(min(d.ShardWaitNs, d.ExecNs)))
		h.tr.add(op, req.OpType, "cluster.shard_wait", ex, evalStart, gathered)
		h.tr.add(op, req.OpType, "cluster.merge", ex, gathered, firstByte)
	}
	h.tr.add(op, req.OpType, "client.read_decode", root, firstByte, end)
	return res
}

// getJSON fetches a GET endpoint into v.
func (f *flockd) getJSON(path string, v any) error {
	resp, err := f.client.Get(f.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// prepare registers a flock and returns its handle.
func (f *flockd) prepare(src string) (string, error) {
	resp, err := f.client.Post(f.base+"/prepare", "text/plain", strings.NewReader(src))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	var pr struct {
		Handle string `json:"handle"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(raw, &pr); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK || pr.Handle == "" {
		return "", fmt.Errorf("/prepare: status %d: %s", resp.StatusCode, pr.Error)
	}
	return pr.Handle, nil
}
