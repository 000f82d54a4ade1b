package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict of one (workload, end-to-end metric) pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares side B's values of a metric with side A's. worse is how
// far B's median is on the wrong side of A's, as a share of A's median.
// When A's own repeats spread wider than the bound, the metric cannot
// resolve a change of that size and the verdict says so rather than "ok".
func judge(m metricDef, a, b []float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if m.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case spread(a) > m.Bound:
		return worse, verdictUnresolved
	case worse > m.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

func readDocs(paths []string) ([]*document, error) {
	var docs []*document
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		doc := &document{}
		if err := json.Unmarshal(raw, doc); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

// values pools one metric's values over a side's documents.
func values(docs []*document, workload, metric string) []float64 {
	var out []float64
	for _, d := range docs {
		if wd := d.Workloads[workload]; wd != nil && wd.EndToEnd[metric] != nil {
			out = append(out, wd.EndToEnd[metric].Values...)
		}
	}
	return out
}

// compareDocs prints, for every (workload, end-to-end metric), both
// medians, B over A, A's own spread, the bound and the verdict. It fails
// when any pairing regressed or either side had failed ops.
func compareDocs(aPaths, bPaths []string, w io.Writer) error {
	a, err := readDocs(aPaths)
	if err != nil {
		return err
	}
	b, err := readDocs(bPaths)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA (base)\tB\tB/A\tspread(A)\tbound\tverdict")
	regressed, failedOps := 0, 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, v := judge(m, va, vb)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n",
				wl.Name, m.Name, median(va), m.Unit, median(vb), median(vb)/median(va), spread(va), m.Bound, v)
		}
		for _, d := range append(append([]*document(nil), a...), b...) {
			if wd := d.Workloads[wl.Name]; wd != nil {
				failedOps += wd.Failed
			}
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "failed ops on either side: %d (any increase in error_rate is a regression)\n", failedOps)
	if regressed > 0 || failedOps > 0 {
		return fmt.Errorf("%d pairings regressed, %d ops failed", regressed, failedOps)
	}
	return nil
}
