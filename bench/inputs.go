package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"queryflocks/internal/core"
	"queryflocks/internal/datalog"
	"queryflocks/internal/eval"
	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

// strategies is the strategy axis of the op corpus, in corpus order.
var strategies = []string{"direct", "static", "dynamic"}

// warmThresholds are the FILTER thresholds the interactive session of
// serve.session-warm cycles through on its prepared fig2 flock.
var warmThresholds = []int64{20, 25, 30, 40, 60, 80}

const (
	fig2     = "fig2-baskets"
	fig3     = "fig3-medical"
	fig10    = "fig10-weighted"
	multidis = "multidisease-views"

	mutateRel     = "exhibits"
	mutateRowsPer = 5
)

// flockFile is one file of examples/flocks: the op corpus is these six
// files times strategies, in file-name order.
type flockFile struct {
	Name   string // file name without .flock
	Source string
}

func loadCorpus(root string) ([]flockFile, error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "flocks", "*.flock"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no flock files under %s/examples/flocks", root)
	}
	sort.Strings(paths)
	var out []flockFile
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, flockFile{Name: strings.TrimSuffix(filepath.Base(p), ".flock"), Source: string(src)})
	}
	return out, nil
}

func corpusSource(corpus []flockFile, name string) (string, error) {
	for _, f := range corpus {
		if f.Name == name {
			return f.Source, nil
		}
	}
	return "", fmt.Errorf("examples/flocks has no %s.flock", name)
}

// generateDB builds the shared database D from the seed: baskets with
// weights, the medical, web and graph relations — ten relations.
func generateDB(seed int64) (*storage.Database, error) {
	db := workload.Baskets(workload.BasketConfig{Baskets: 2000, Items: 1000, MeanSize: 8, Skew: 1.0, Seed: seed})
	if err := workload.AttachWeights(db, 10, seed+1); err != nil {
		return nil, err
	}
	for _, part := range []*storage.Database{
		workload.Medical(workload.DefaultMedical(5000, seed+2)),
		workload.Web(workload.DefaultWeb(2000, seed+3)),
		workload.Graph(workload.DefaultGraph(2000, seed+4)),
	} {
		for _, name := range part.Names() {
			db.Add(part.MustRelation(name))
		}
	}
	return db, nil
}

// inputs is what a run generates before the system under test starts;
// the system only ever sees the files.
type inputs struct {
	CSVDir, SegDir string
	CSVBytes       int64
	SegBytes       int64
	IngestS        float64           // storage.CreateDir
	Refs           map[string]answer // expected answer per reference key
}

// answer identifies an answer relation by its sorted rows.
type answer struct {
	Rows int    `json:"rows"`
	SHA  string `json:"sha256"`
}

func (a answer) String() string {
	return fmt.Sprintf("%d rows %s", a.Rows, a.SHA[:min(12, len(a.SHA))])
}

// hashRows fingerprints sorted answer rows rendered as strings, the form
// both flockd's JSON and Relation.Sorted yield.
func hashRows(rows [][]string) answer {
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(strings.Join(r, "\t")))
		h.Write([]byte{'\n'})
	}
	return answer{Rows: len(rows), SHA: hex.EncodeToString(h.Sum(nil))}
}

func relationRows(rel *storage.Relation) [][]string {
	sorted := rel.Sorted()
	rows := make([][]string, len(sorted))
	for i, t := range sorted {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = v.String()
		}
		rows[i] = row
	}
	return rows
}

// refKey names the reference answer of a flock with its threshold
// rebound; the flock's name alone is the key of the file's own threshold.
func refKey(flock string, threshold int64) string {
	return fmt.Sprintf("%s@%d", flock, threshold)
}

// referenceAnswer evaluates a flock with the legacy materializing
// executor, the path no workload measures, so every measured path is
// checked against an independent one.
func referenceAnswer(db *storage.Database, src string, threshold int64) (answer, error) {
	fs, err := datalog.ParseFlock(src)
	if err != nil {
		return answer{}, err
	}
	if threshold != 0 {
		fs.Filter.Threshold = storage.Int(threshold)
	}
	flock, err := core.NewWithViews(fs.Views, fs.Query, fs.Filter)
	if err != nil {
		return answer{}, err
	}
	rel, err := flock.Eval(db, &core.EvalOptions{Workers: 1, Exec: eval.ExecMaterialize})
	if err != nil {
		return answer{}, err
	}
	return hashRows(relationRows(rel)), nil
}

// makeInputs generates D from the seed, writes it once as a CSV
// directory and once as a segment data directory under dir, and computes
// the reference answers for the given keys.
func makeInputs(dir string, seed int64, corpus []flockFile, expect []string) (*inputs, *storage.Database, error) {
	db, err := generateDB(seed)
	if err != nil {
		return nil, nil, err
	}
	in := &inputs{CSVDir: filepath.Join(dir, "csv"), SegDir: filepath.Join(dir, "seg"), Refs: map[string]answer{}}
	if err := os.MkdirAll(in.CSVDir, 0o755); err != nil {
		return nil, nil, err
	}
	for _, name := range db.Names() {
		if err := storage.WriteCSVFile(db.MustRelation(name), filepath.Join(in.CSVDir, name+".csv")); err != nil {
			return nil, nil, err
		}
	}
	start := time.Now()
	if err := storage.CreateDir(in.SegDir, db); err != nil {
		return nil, nil, err
	}
	in.IngestS = time.Since(start).Seconds()
	if in.CSVBytes, err = dirBytes(in.CSVDir); err != nil {
		return nil, nil, err
	}
	if in.SegBytes, err = dirBytes(in.SegDir); err != nil {
		return nil, nil, err
	}
	for _, key := range expect {
		if _, done := in.Refs[key]; done || key == "" {
			continue
		}
		flock, at, _ := strings.Cut(key, "@")
		threshold, _ := strconv.ParseInt(at, 10, 64) // no "@N" leaves the file's own threshold
		src, err := corpusSource(corpus, flock)
		if err != nil {
			return nil, nil, err
		}
		if in.Refs[key], err = referenceAnswer(db, src, threshold); err != nil {
			return nil, nil, fmt.Errorf("reference answer for %s: %w", key, err)
		}
	}
	return in, db, nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// copyDir copies the regular files of a flat directory; serve.mutate-mix
// writes to a copy so the shared inputs stay as generated.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// request is one op of a workload's closed loop.
type request struct {
	OpType   string // the op type latencies and layer times are grouped by
	Flock    string // corpus flock name
	Strategy string
	Path     string // flockd path and query; "{handle}" is the prepared flock's handle
	Body     string
	Expect   string // reference key the answer must match; "" = checked by the workload itself
	Write    bool
}

// cycleRequests returns the requests of one cycle of a workload's closed
// loop. It is a pure function of its arguments: the same seed always
// gives the same schedule.
func cycleRequests(wl string, corpus []flockFile, seed int64, client, cycle int) ([]request, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + int64(cycle)))
	query := func(flock, strategy string) (request, error) {
		src, err := corpusSource(corpus, flock)
		return request{
			OpType: flock + "/" + strategy, Flock: flock, Strategy: strategy,
			Path: "/query?cache=0&strategy=" + strategy, Body: src, Expect: flock,
		}, err
	}
	var reqs []request
	add := func(r request, err error) error {
		reqs = append(reqs, r)
		return err
	}
	switch wl {
	case "batch.corpus", "serve.disk-cold":
		for _, f := range corpus {
			for _, s := range strategies {
				if err := add(query(f.Name, s)); err != nil {
					return nil, err
				}
			}
		}
	case "serve.session-warm":
		for i := 0; i < 4; i++ {
			t := warmThresholds[(cycle*4+i)%len(warmThresholds)]
			reqs = append(reqs, request{
				OpType: fmt.Sprintf("invoke/%s@%d", fig2, t), Flock: fig2, Strategy: "direct",
				Path: "/invoke/{handle}", Body: fmt.Sprintf(`{"threshold": %d}`, t), Expect: refKey(fig2, t),
			})
		}
		src, err := corpusSource(corpus, fig2)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{
			OpType: "query/" + fig2 + "~renamed", Flock: fig2, Strategy: "direct",
			Path: "/query", Body: alphaRename(src, rng.Intn(1_000_000)), Expect: fig2,
		})
	case "serve.mutate-mix":
		for i := 0; i < 4; i++ {
			reqs = append(reqs, request{OpType: "invoke/" + fig3, Flock: fig3, Strategy: "direct", Path: "/invoke/{handle}"})
		}
		var rows strings.Builder
		for i := 0; i < mutateRowsPer; i++ {
			fmt.Fprintf(&rows, "%d,s%d\n", rng.Intn(5000), rng.Intn(200))
		}
		reqs = append(reqs, request{OpType: "mutate/" + mutateRel, Path: "/mutate/" + mutateRel, Body: rows.String(), Write: true})
	case "serve.sharded-2":
		for _, op := range [][2]string{
			{fig2, "direct"}, {fig2, "static"}, {fig10, "direct"}, {fig10, "static"}, // scattered
			{fig3, "static"}, {multidis, "direct"}, // coordinator-local fallback
		} {
			if err := add(query(op[0], op[1])); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	return reqs, nil
}

// alphaRename renames the variable of the fig2 program, so the text
// differs per request while the canonical program — and so the
// plan-cache key — stays the same. Parameters keep their names: they name
// the answer's columns and are part of the canonical form.
func alphaRename(src string, n int) string {
	r := strings.NewReplacer("(B", fmt.Sprintf("(B%d", n), ".B", fmt.Sprintf(".B%d", n))
	var out []string
	for _, line := range strings.Split(src, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "#") {
			line = r.Replace(line)
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}
