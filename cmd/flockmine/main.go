// Command flockmine mines frequent itemsets and association rules from a
// baskets CSV, exposing the two mining stacks of this repository:
//
//   - "flocks": footnote 2's sequence of query flocks, one per itemset
//     cardinality, each semi-joining the previous level;
//   - "classic": the [AS94] level-wise algorithm.
//
// Both find identical itemsets; rules (with the §1.1 support, confidence
// and interest measures) always derive from the classic counts.
//
// Usage:
//
//	flockmine -data baskets.csv [-support 20] [-engine flocks|classic]
//	          [-maxk 0] [-rules] [-min-confidence 0.5] [-out rules.csv]
//	          [-timeout 5m]
//
// -pprof ADDR serves net/http/pprof and expvar on ADDR for live profiling
// of long mining runs; -timeout bounds the whole flocks-engine run with
// one wall-clock deadline shared by every level's evaluation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"queryflocks/internal/apriori"
	"queryflocks/internal/core"
	"queryflocks/internal/mining"
	"queryflocks/internal/obs"
	"queryflocks/internal/storage"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flockmine:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flockmine", flag.ContinueOnError)
	var (
		data    = fs.String("data", "", "baskets CSV file (2 columns: basket, item)")
		support = fs.Int("support", 20, "minimum support count")
		engine  = fs.String("engine", "flocks", "flocks|classic")
		maxK    = fs.Int("maxk", 0, "max itemset size (0 = unbounded)")
		rules   = fs.Bool("rules", false, "also derive association rules")
		minConf = fs.Float64("min-confidence", 0.5, "confidence floor for -rules")
		out     = fs.String("out", "", "write rules as CSV to this file (with -rules)")
		top     = fs.Int("top", 10, "rules to print (by confidence)")
		workers = fs.Int("workers", 0, "in-process parts per FILTER computation of the flocks engine, split on its first parameter (0 = one per CPU, 1 = sequential)")
		pprof   = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		timeout = fs.Duration("timeout", 0, "wall-clock limit for the whole flocks-engine mining run (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data FILE is required")
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %v)", *timeout)
	}
	if *pprof != "" {
		addr, err := obs.StartDebugServer(*pprof)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "flockmine: pprof/expvar on http://%s/debug/pprof/\n", addr)
	}
	rel, err := storage.ReadCSVFile(*data)
	if err != nil {
		return err
	}

	switch *engine {
	case "flocks":
		db := storage.NewDatabase()
		db.Add(rel.Rename("baskets", nil))
		// One deadline covers the whole level sequence: every level's
		// evaluation derives its gate from the same expiring context.
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		res, err := mining.FrequentItemsets(db, *support, &mining.Options{
			MaxK: *maxK,
			Eval: &core.EvalOptions{Workers: *workers, Ctx: ctx},
		})
		if err != nil {
			return err
		}
		fmt.Printf("%d frequent itemsets in %d levels (flock sequence):\n", res.Count(), len(res.Levels))
		for k, level := range res.Levels {
			fmt.Printf("  L%d: %d sets\n", k+1, level.Len())
		}
		fmt.Printf("maximal sets: %d\n", len(res.MaximalItemsets()))
	case "classic":
		ds, err := apriori.FromBaskets(rel)
		if err != nil {
			return err
		}
		levels := apriori.Frequent(ds, *support, *maxK)
		total := 0
		fmt.Println("frequent itemsets (classic a-priori):")
		for k, level := range levels {
			if len(level) == 0 {
				break
			}
			total += len(level)
			fmt.Printf("  L%d: %d sets\n", k+1, len(level))
		}
		fmt.Printf("total: %d\n", total)
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}

	if !*rules {
		return nil
	}
	ds, err := apriori.FromBaskets(rel)
	if err != nil {
		return err
	}
	mined := apriori.Rules(ds, *support, &apriori.RuleOptions{
		MinConfidence: *minConf, MaxK: *maxK, SingleConsequent: true,
	})
	fmt.Printf("\n%d rules with confidence >= %.2f; top %d:\n", len(mined), *minConf, *top)
	for i, r := range mined {
		if i == *top {
			break
		}
		fmt.Printf("  %s\n", r.Render(ds))
	}
	if *out != "" {
		if err := storage.WriteCSVFile(apriori.RulesRelation(ds, mined), *out); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}
