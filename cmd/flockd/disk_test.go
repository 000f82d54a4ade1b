package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"queryflocks/internal/storage"
)

// diskServer ingests db into a fresh data directory and serves it with
// the disk engine.
func diskServer(t *testing.T, db *storage.Database) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	if err := storage.CreateDir(dir, db); err != nil {
		t.Fatal(err)
	}
	disk, handle, err := storage.OpenDir(dir, storage.EngineDisk)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(disk, serverConfig{Dir: handle, Workers: 1}).handler())
	t.Cleanup(ts.Close)
	return ts, dir
}

// TestDiskBadSegmentIs500 cuts a column file under a running disk
// server: the first touch of the relation must answer a structured 500
// naming it — an error returned through operator open, not a recovered
// panic — and the server keeps answering for the relations it can read.
func TestDiskBadSegmentIs500(t *testing.T) {
	db := basketsDB(t)
	other := storage.NewRelation("other", "A", "B")
	for i := 0; i < 50; i++ {
		other.InsertValues(storage.Int(int64(i%5)), storage.Int(int64(i)))
	}
	db.Add(other)
	ts, dir := diskServer(t, db)

	seg := filepath.Join(dir, "baskets.cols")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	for _, strategy := range []string{"direct", "static", "dynamic"} {
		status, body := postQuery(t, ts, "?strategy="+strategy, pairCountFlock)
		if status != http.StatusInternalServerError {
			t.Fatalf("%s: want 500, got %d: %s", strategy, status, body)
		}
		var resp errorResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: unstructured error body: %s", strategy, body)
		}
		if resp.Relation != "baskets" || strings.Contains(resp.Error, errPanic.Error()) {
			t.Fatalf("%s: want a typed segment error naming baskets, got %+v", strategy, resp)
		}
	}

	status, body := postQuery(t, ts, "", `
QUERY:
answer(B) :- other($a,B)
FILTER:
COUNT(answer.B) >= 10
`)
	if status != http.StatusOK {
		t.Fatalf("server stopped serving readable relations: %d: %s", status, body)
	}
	if qr := decodeQuery(t, body); qr.AnswerRows != 5 {
		t.Fatalf("answer rows %d, want 5", qr.AnswerRows)
	}
}

// TestDiskColdBuildHonorsDeadline posts a query with a deadline far
// shorter than the first-touch ID-column build of its relation: the
// build must give up with a 504, leave nothing half-built behind, and the
// next request must build and answer normally.
func TestDiskColdBuildHonorsDeadline(t *testing.T) {
	db := storage.NewDatabase()
	rel := storage.NewRelation("pairs", "G", "X")
	for i := 0; i < 200_000; i++ {
		rel.InsertValues(storage.Int(int64(i%1000)), storage.Int(int64(i)))
	}
	db.Add(rel)
	ts, _ := diskServer(t, db)
	const flock = `
QUERY:
answer(X) :- pairs($g,X)
FILTER:
COUNT(answer.X) >= 200
`
	start := time.Now()
	status, body := postQuery(t, ts, "?timeout=1ms", flock)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d: %s", status, body)
	}
	cancelled := time.Since(start)

	start = time.Now()
	status, body = postQuery(t, ts, "", flock)
	if status != http.StatusOK {
		t.Fatalf("request after the cancelled build: %d: %s", status, body)
	}
	if qr := decodeQuery(t, body); qr.AnswerRows != 1000 {
		t.Fatalf("answer rows %d, want 1000", qr.AnswerRows)
	}
	if full := time.Since(start); cancelled > full {
		t.Errorf("the cancelled request took %v, longer than a full build and evaluation (%v)", cancelled, full)
	}
}
