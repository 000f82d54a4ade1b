package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ShardError is a structured failure of one worker shard: the shard's
// address, the HTTP status (0 for transport errors), and the underlying
// cause. flockd surfaces it as a 502 naming the dead shard.
type ShardError struct {
	Shard  string
	Status int
	Err    error
}

func (e *ShardError) Error() string {
	if e.Status > 0 {
		return fmt.Sprintf("shard %s: status %d: %v", e.Shard, e.Status, e.Err)
	}
	return fmt.Sprintf("shard %s: %v", e.Shard, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// ShardResult is one shard's outcome of a scatter: the decoded response or
// a ShardError, plus the round-trip wall time for the merged report.
type ShardResult struct {
	Addr string
	Resp *PartialResponse
	Wall time.Duration
	Err  *ShardError
}

// Client scatters partial-evaluation requests to the worker shards.
// /partial is read-only on the workers, so failed attempts retry safely:
// transport errors and 5xx responses are retried up to Retries times with
// linear backoff; 4xx responses (including the 409 version mismatch) fail
// fast — repeating them cannot succeed.
type Client struct {
	// Shards lists the worker addresses in shard-index order ("host:port"
	// or a full URL). The order is part of the answer contract: partial
	// states merge in this order.
	Shards []string
	// Timeout bounds each attempt to one shard (not the whole scatter).
	Timeout time.Duration
	// Retries is the number of additional attempts after a retryable
	// failure; Backoff is the wait before attempt n+1 (linear: n*Backoff).
	Retries int
	Backoff time.Duration
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

// url returns the /partial endpoint for a shard address.
func shardURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/") + "/partial"
}

// Scatter sends req to every shard concurrently and gathers the results
// in shard order. It never fails as a whole: per-shard failures land in
// the corresponding ShardResult.Err, and the caller applies the
// partial-failure policy.
func (c *Client) Scatter(ctx context.Context, req *PartialRequest) []ShardResult {
	body, err := json.Marshal(req)
	results := make([]ShardResult, len(c.Shards))
	if err != nil {
		for i, addr := range c.Shards {
			results[i] = ShardResult{Addr: addr, Err: &ShardError{Shard: addr, Err: err}}
		}
		return results
	}
	var wg sync.WaitGroup
	for i, addr := range c.Shards {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			start := time.Now()
			resp, serr := c.callShard(ctx, addr, body)
			results[i] = ShardResult{Addr: addr, Resp: resp, Wall: time.Since(start), Err: serr}
		}(i, addr)
	}
	wg.Wait()
	return results
}

// callShard runs the per-shard attempt loop.
func (c *Client) callShard(ctx context.Context, addr string, body []byte) (*PartialResponse, *ShardError) {
	client := c.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	var last *ShardError
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, &ShardError{Shard: addr, Err: ctx.Err()}
			case <-time.After(time.Duration(attempt) * c.Backoff):
			}
		}
		resp, serr, retryable := c.attempt(ctx, client, addr, body)
		if serr == nil {
			return resp, nil
		}
		last = serr
		if !retryable {
			return nil, last
		}
	}
	return nil, last
}

// attempt performs one HTTP round-trip to a shard. Whatever the outcome,
// the response body is read to its end before it is closed: net/http
// returns a connection to the pool only then, and a scatter per FILTER
// step should not pay a TCP handshake per shard.
func (c *Client) attempt(ctx context.Context, client *http.Client, addr string, body []byte) (*PartialResponse, *ShardError, bool) {
	actx := ctx
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, shardURL(addr), bytes.NewReader(body))
	if err != nil {
		return nil, &ShardError{Shard: addr, Err: err}, false
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := client.Do(hreq)
	if err != nil {
		// Transport failure (refused, reset, attempt timeout): retryable
		// unless the scatter itself was canceled.
		return nil, &ShardError{Shard: addr, Err: err}, ctx.Err() == nil
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(hresp.Body, MaxPartialBody)) // best effort: only reuse is at stake
		hresp.Body.Close()
	}()
	if hresp.StatusCode != http.StatusOK {
		msg := readShardError(hresp.Body)
		serr := &ShardError{Shard: addr, Status: hresp.StatusCode, Err: fmt.Errorf("%s", msg)}
		return nil, serr, hresp.StatusCode >= 500 && ctx.Err() == nil
	}
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, MaxPartialBody+1))
	if err == nil && len(raw) > MaxPartialBody {
		err = fmt.Errorf("larger than %d bytes", MaxPartialBody)
	}
	var out *PartialResponse
	if err == nil {
		out, err = DecodePartial(raw)
	}
	if err != nil {
		return nil, &ShardError{Shard: addr, Status: hresp.StatusCode, Err: fmt.Errorf("bad response body: %v", err)}, ctx.Err() == nil
	}
	return out, nil, false
}

// readShardError extracts the structured error message from a failed
// shard response, falling back to the raw body.
func readShardError(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4096))
	var pe struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &pe); err == nil && pe.Error != "" {
		return pe.Error
	}
	return strings.TrimSpace(string(raw))
}
