// Command flockgen writes synthetic datasets as CSV relations, ready for
// flockql. The generators mirror the experiment workloads (DESIGN.md's
// substitution table).
//
// Usage:
//
//	flockgen -kind baskets|words|medical|web|graph [-out DIR] [-n N] [-seed S] [-weights]
//	         [-data-dir DIR]
//
// -n scales the primary size (baskets, documents, patients, or nodes).
// -data-dir additionally ingests the dataset into a storage data
// directory (column files + dictionary + catalog) that flockd,
// flockql, and flockbench can open with either the memory or the disk
// engine.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"queryflocks/internal/storage"
	"queryflocks/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flockgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flockgen", flag.ContinueOnError)
	var (
		kind    = fs.String("kind", "baskets", "baskets|words|medical|web|graph")
		out     = fs.String("out", ".", "output directory")
		n       = fs.Int("n", 1000, "primary size (baskets/docs/patients/nodes)")
		seed    = fs.Int64("seed", 1, "generator seed")
		weights = fs.Bool("weights", false, "also write importance(BID,W) (baskets/words only)")
		flock   = fs.Bool("flock", false, "also write a matching sample .flock file")
		dataDir = fs.String("data-dir", "", "also ingest into a data directory for -engine disk serving")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var db *storage.Database
	switch *kind {
	case "baskets":
		db = workload.Baskets(workload.BasketConfig{
			Baskets: *n, Items: *n / 2, MeanSize: 8, Skew: 1.0, Seed: *seed,
		})
	case "words":
		db = workload.Words(*n, 6**n, 15, *seed)
	case "medical":
		db = workload.Medical(workload.DefaultMedical(*n, *seed))
	case "web":
		db = workload.Web(workload.DefaultWeb(*n, *seed))
	case "graph":
		db = workload.Graph(workload.DefaultGraph(*n, *seed))
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if *weights {
		if err := workload.AttachWeights(db, 10, *seed+1); err != nil {
			return fmt.Errorf("-weights requires a baskets relation: %w", err)
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, name := range db.Names() {
		rel := db.MustRelation(name)
		path := filepath.Join(*out, name+".csv")
		if err := storage.WriteCSVFile(rel, path); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d tuples)\n", path, rel.Len())
	}
	if *dataDir != "" {
		if err := storage.CreateDir(*dataDir, db); err != nil {
			return err
		}
		fmt.Printf("wrote data dir %s (%d relations; open with -engine memory|disk)\n", *dataDir, len(db.Names()))
	}
	if *flock {
		src, ok := sampleFlock(*kind, *weights)
		if !ok {
			return fmt.Errorf("no sample flock for kind %q", *kind)
		}
		path := filepath.Join(*out, *kind+".flock")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (run: flockql -data %s %s)\n", path, *out, path)
	}
	return nil
}

// sampleFlock returns the paper flock matching a generated dataset, with a
// support floor suited to the default sizes.
func sampleFlock(kind string, weights bool) (string, bool) {
	switch kind {
	case "baskets", "words":
		if weights {
			return `# Fig. 10: item pairs whose co-occurrence baskets have total importance >= 110
QUERY:
answer(B,W) :-
    baskets(B,$1) AND
    baskets(B,$2) AND
    importance(B,W) AND
    $1 < $2
FILTER:
SUM(answer.W) >= 110
`, true
		}
		return `# Fig. 2: pairs of items appearing together in >= 20 baskets
QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 20
`, true
	case "medical":
		return `# Fig. 3: unexplained (symptom, medicine) pairs in >= 20 patients
QUERY:
answer(P) :-
    exhibits(P,$s) AND
    treatments(P,$m) AND
    diagnoses(P,D) AND
    NOT causes(D,$s)
FILTER:
COUNT(answer.P) >= 20
`, true
	case "web":
		return `# Fig. 4: strongly connected word pairs (union of three relationships)
QUERY:
answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) AND $1 < $2
answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) AND $1 < $2
FILTER:
COUNT(answer(*)) >= 20
`, true
	case "graph":
		return `# Fig. 6: nodes with >= 20 successors from which a length-3 path extends
QUERY:
answer(X) :- arc($1,X) AND arc(X,Y1) AND arc(Y1,Y2) AND arc(Y2,Y3)
FILTER:
COUNT(answer.X) >= 20
`, true
	default:
		return "", false
	}
}
