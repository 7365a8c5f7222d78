package experiments

import (
	"fmt"
	"math/rand"

	"qcpa/internal/classify"
	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
)

// MixedThroughput (E23) measures the real cluster under a mixed
// read/write load at two update fractions (10% and 50% of requests),
// sweeping the number of concurrent clients. It exercises the snapshot-
// read + group-commit write path end to end: reads execute lock-free
// against published epochs while concurrent updates batch into
// group-committed ROWA rounds, so read throughput keeps growing with
// client concurrency instead of serializing behind the writers. The
// reported Y is read requests/sec (completed requests/sec times the
// read share of the mix).
func MixedThroughput(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	t := &Table{
		ID: "E23", Title: "mixed read/write throughput (real engines, TPC-App)",
		XLabel: "concurrent clients", YLabel: "read requests/sec (real execution)",
		Notes: "snapshot reads + group commit: reads scale with clients while updates batch into rounds; absolute numbers depend on host cores",
	}
	workers := []int{1, 2, 4, 8}
	for _, frac := range []float64{0.10, 0.50} {
		s := Series{Name: fmt.Sprintf("%d%% updates", int(frac*100+0.5))}
		for _, w := range workers {
			qps, err := runMixedOnce(w, frac, opts)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, qps*(1-frac))
		}
		t.Series = append(t.Series, s)
	}
	return t, nil
}

// mixedNext samples requests with a fixed update fraction: write
// templates with probability frac, read templates otherwise, each
// weighted by frequency within its half (the standard TPC-App mix is
// 87.5% writes by request count, so the mixes here resample it).
func mixedNext(mix *workload.Mix, frac float64, rng *rand.Rand) func() workload.Request {
	var reads, writes []workload.Template
	for _, tpl := range mix.Templates() {
		if tpl.Write {
			writes = append(writes, tpl)
		} else {
			reads = append(reads, tpl)
		}
	}
	pick := func(tpls []workload.Template) workload.Request {
		total := 0.0
		for _, tpl := range tpls {
			total += tpl.Freq
		}
		x := rng.Float64() * total
		idx := len(tpls) - 1
		acc := 0.0
		for i, tpl := range tpls {
			acc += tpl.Freq
			if x <= acc {
				idx = i
				break
			}
		}
		tpl := tpls[idx]
		sql := tpl.Journal
		if tpl.Gen != nil {
			sql = tpl.Gen(rng)
		}
		return workload.Request{SQL: sql, Write: tpl.Write, Cost: tpl.Cost}
	}
	return func() workload.Request {
		if rng.Float64() < frac {
			return pick(writes)
		}
		return pick(reads)
	}
}

// runMixedOnce loads a small TPC-App cluster and drives it with the
// given client count and update fraction, returning the completed
// request throughput.
func runMixedOnce(workers int, frac float64, opts Options) (float64, error) {
	c, mix, err := mixedCluster(opts)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	// A full opts.Requests per point: with plan-cached reads the engine
	// clears ~30k req/s, so a smaller sample measures only a few
	// milliseconds and the 8-vs-1-client floor drowns in scheduler noise.
	return mixedRate(c, mix, workers, frac, max(opts.Requests, 1000), opts.Seed)
}

// mixedCluster loads the small TPC-App cluster E23 drives: the journal
// classified by table and allocated greedily on 2 backends.
func mixedCluster(opts Options) (*cluster.Cluster, *workload.Mix, error) {
	mix, err := tpcapp.Mix(1)
	if err != nil {
		return nil, nil, err
	}
	res, err := classify.Classify(mix.Journal(10000), tpcapp.Schema(), classify.Options{
		Strategy: classify.TableBased, RowCounts: tpcapp.RowCounts(300),
	})
	if err != nil {
		return nil, nil, err
	}
	alloc, err := core.Greedy(res.Classification, core.UniformBackends(2))
	if err != nil {
		return nil, nil, err
	}
	c, err := cluster.New(cluster.Config{Backends: core.UniformBackends(2)})
	if err != nil {
		return nil, nil, err
	}
	loadRows := map[string]int64{
		"author": 25, "item": 60, "customer": 80, "address": 160, "orders": 120, "order_line": 400,
	}
	if err := c.Install(alloc, func(e *sqlmini.Engine, tables []string) error {
		return tpcapp.Load(e, tables, loadRows, opts.Seed)
	}); err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, mix, nil
}

// mixedRate drives c with reqs requests of the given update fraction
// from workers concurrent clients and returns the completed request
// throughput.
func mixedRate(c *cluster.Cluster, mix *workload.Mix, workers int, frac float64, reqs int, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	stats, err := c.Run(mixedNext(mix, frac, rng), reqs, workers)
	if err != nil {
		return 0, err
	}
	if stats.Errors > 0 {
		return 0, fmt.Errorf("experiments: mixed run had %d errors (first: %s)", stats.Errors, stats.FirstError)
	}
	return stats.Throughput, nil
}
