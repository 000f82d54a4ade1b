package experiments

import (
	"fmt"
	"net/http/httptest"
	"time"

	"queryflocks/internal/cluster"
	"queryflocks/internal/core"
	"queryflocks/internal/serve"
	"queryflocks/internal/workload"
)

// E13 demonstrates the sharded flockd cluster: the basket workload is
// range-partitioned across in-process worker shards (each serving the
// real /partial HTTP handler over its Restrict()-ed view), and a
// coordinator scatters every FILTER computation, gathering and merging
// the shards' exported group states in shard order. The cluster oracle
// is the contract under test: the merged answer must be bit-identical to
// the single-node answer at every shard count, for both the direct
// evaluator and an executed static plan.
func E13(cfg Config) (*Table, error) {
	db := workload.Baskets(workload.BasketConfig{
		Baskets:  cfg.scaled(2_000),
		Items:    cfg.scaled(40),
		MeanSize: 6,
		Skew:     0.9,
		Seed:     cfg.Seed,
	})
	f := core.MustParse(`QUERY:
answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
FILTER:
COUNT(answer.B) >= 8
`)

	t := &Table{
		ID:     "E13",
		Title:  "sharded cluster — scatter/gather merge vs single node",
		Header: []string{"shards", "strategy", "time", "answers", "scattered", "fallbacks", "merged groups"},
	}

	// The single-node oracle every sharded run must reproduce exactly.
	oracle, err := f.Eval(db, cfg.EvalOpts())
	if err != nil {
		return nil, fmt.Errorf("E13 oracle: %w", err)
	}

	for _, shards := range []int{1, 2, 4} {
		m, err := cluster.BuildMap(db, "", 0, shards)
		if err != nil {
			return nil, fmt.Errorf("E13 map: %w", err)
		}
		servers := make([]*httptest.Server, shards)
		addrs := make([]string, shards)
		for i := range servers {
			wdb, err := m.Restrict(db, i)
			if err != nil {
				return nil, fmt.Errorf("E13 restrict %d: %w", i, err)
			}
			servers[i] = httptest.NewServer(
				serve.New(wdb, serve.Config{Workers: cfg.Workers, Timeout: cfg.Timeout}).PartialHandler())
			addrs[i] = servers[i].URL
		}
		co := cluster.New(m, &cluster.Client{
			Shards: addrs, Timeout: 30 * time.Second, Retries: 1, Backoff: 10 * time.Millisecond,
		}, db.Names())

		// The coordinator is the same request pipeline flockd runs, with
		// the cluster mounted.
		pipe := serve.New(db, serve.Config{Workers: cfg.Workers, Timeout: cfg.Timeout, Cluster: co})
		for _, strategy := range []string{"direct", "static"} {
			var out serve.Outcome
			elapsed, err := timed(func() (err error) {
				out, err = pipe.Run(&serve.Program{Flock: f}, serve.Request{Strategy: strategy, Trace: true})
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("E13 %d shards %s: %w", shards, strategy, err)
			}
			answer, stats := out.Answer, out.Report.Cluster
			if !answer.Equal(oracle) {
				return nil, fmt.Errorf("E13: %d shards (%s) disagrees with the single-node oracle", shards, strategy)
			}
			if stats.Scattered == 0 && stats.Fallbacks == 0 {
				return nil, fmt.Errorf("E13: %d shards (%s) neither scattered nor fell back", shards, strategy)
			}
			if cfg.Metrics {
				out.Report.Strategy = fmt.Sprintf("E13 %d-shard %s", shards, strategy)
				t.OpReports = append(t.OpReports, out.Report)
			}
			t.AddRow(fmt.Sprintf("%d", shards), strategy, ms(elapsed),
				fmt.Sprintf("%d", answer.Len()),
				fmt.Sprintf("%d", stats.Scattered),
				fmt.Sprintf("%d", stats.Fallbacks),
				fmt.Sprintf("%d", stats.MergedGroups))
		}
		for _, s := range servers {
			s.Close()
		}
	}
	t.AddNote("merged answers bit-identical to the single node at 1, 2, and 4 shards for direct and static")
	return t, nil
}
