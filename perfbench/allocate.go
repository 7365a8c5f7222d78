package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"time"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/matching"
	"qcpa/internal/sim"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
	"qcpa/internal/workload/tpch"
)

const (
	// allocSetupReps is how often an allocate run builds its inputs;
	// setup_s is the median.
	allocSetupReps = 9
	// maxBackends is the largest cluster the heuristics plan for.
	maxBackends = 10
	// simRequests is the length of each simulated run.
	simRequests = 2000
	// optimalMaxNodes caps branch-and-bound nodes per MILP phase. The
	// MILP has no time limit, so its result does not depend on how fast
	// the machine is.
	optimalMaxNodes = 150
	// memeticSeed fixes the evolutionary solver's stream, so allocations
	// and their scale factors are the same for every run seed.
	memeticSeed = 1
)

// optimalBackends are the cluster sizes core.Optimal solves, on the
// TPC-H table-based classification only.
var optimalBackends = []int{2, 3}

// allocCase is one workload journal classified at one granularity.
type allocCase struct {
	name    string
	journal []classify.Entry
	schema  sqlmini.Schema
	opts    classify.Options
	optimal bool
	// classOf is the set-up classification's routing map; every pass
	// must reproduce it.
	classOf map[string]string
	// requests is the simulator input, generated from the run seed.
	requests []sim.Request
}

// allocInputs builds the four cases: TPC-H and TPC-App, each at table
// and column granularity, with their simulator request streams.
func allocInputs(seed int64) ([]*allocCase, error) {
	var cases []*allocCase
	for k, spec := range []struct {
		name     string
		strategy classify.Strategy
	}{
		{"tpch/table", classify.TableBased},
		{"tpch/column", classify.ColumnBased},
		{"tpcapp/table", classify.TableBased},
		{"tpcapp/column", classify.ColumnBased},
	} {
		c := &allocCase{name: spec.name, optimal: spec.name == "tpch/table"}
		var (
			mix *workload.Mix
			err error
		)
		if strings.HasPrefix(spec.name, "tpch") {
			mix, err = tpch.Mix()
			c.journal, c.schema = mix.Journal(10000), tpch.Schema()
			c.opts = classify.Options{Strategy: spec.strategy, RowCounts: tpch.RowCounts(1)}
		} else {
			mix, err = tpcapp.Mix(300)
			c.journal, c.schema = mix.Journal(200000), tpcapp.Schema()
			c.opts = classify.Options{Strategy: spec.strategy, RowCounts: tpcapp.RowCounts(300)}
		}
		if err != nil {
			return nil, err
		}
		res, err := classify.Classify(c.journal, c.schema, c.opts)
		if err != nil {
			return nil, fmt.Errorf("%s: classify: %w", c.name, err)
		}
		c.classOf = res.ClassOf
		mix.Bind(res)
		rng := newStreamRand(seed, k)
		c.requests = make([]sim.Request, simRequests)
		for i := range c.requests {
			r := mix.Next(rng)
			c.requests[i] = sim.Request{Class: r.Class, Write: r.Write, Cost: r.Cost}
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// pass is what one run through the job list produced.
type pass struct {
	elapsed time.Duration
	stage   map[string]time.Duration
	jobs    []int64 // ns per job
	// scaleSum and replSum add up over the allocations computed.
	scaleSum, replSum float64
	allocs            int
	nodes             int
	// results lists every job's deterministic outputs; passes must
	// agree on it exactly.
	results []float64
	proven  []string
}

// stageLayer maps a job stage to the layer it exercises and the
// function it calls.
var stageLayer = map[string][2]string{
	"classify": {"classify", "classify.Classify"},
	"greedy":   {"core", "core.Greedy"},
	"memetic":  {"core", "core.Memetic"},
	"optimal":  {"core", "core.Optimal"},
	"matching": {"matching", "matching.PlanMigration"},
	"sim":      {"sim", "sim.RunClosedLoop"},
}

// runPass runs the job list once.
func runPass(cases []*allocCase, seed int64, o *outcome, tr *tracer) *pass {
	p := &pass{stage: make(map[string]time.Duration)}
	job := func(stage, what string, fn func() error) {
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		p.stage[stage] += d
		p.jobs = append(p.jobs, d.Nanoseconds())
		o.attempted++
		if err != nil {
			o.failed++
			if len(o.problems) < 20 {
				o.problemf("%s %s: %v", stage, what, err)
			}
		}
		l := stageLayer[stage]
		tr.add(t0, part{l[1], l[0], d})
	}
	noteAlloc := func(a *core.Allocation) error {
		if err := a.Validate(); err != nil {
			return err
		}
		p.scaleSum += a.Scale()
		p.replSum += a.DegreeOfReplication()
		p.allocs++
		p.results = append(p.results, a.Scale(), a.DegreeOfReplication())
		return nil
	}
	for _, c := range cases {
		var cls *core.Classification
		job("classify", c.name, func() error {
			res, err := classify.Classify(c.journal, c.schema, c.opts)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(res.ClassOf, c.classOf) {
				return fmt.Errorf("classification differs from the set-up classification")
			}
			cls = res.Classification
			return nil
		})
		if cls == nil {
			continue
		}
		greedy := make([]*core.Allocation, maxBackends+1)
		for n := 1; n <= maxBackends; n++ {
			job("greedy", fmt.Sprintf("%s n=%d", c.name, n), func() error {
				a, err := core.Greedy(cls, core.UniformBackends(n))
				if err != nil {
					return err
				}
				greedy[n] = a
				return noteAlloc(a)
			})
		}
		job("memetic", fmt.Sprintf("%s n=%d", c.name, maxBackends), func() error {
			a, err := core.Memetic(cls, core.UniformBackends(maxBackends), core.MemeticOptions{Seed: memeticSeed})
			if err != nil {
				return err
			}
			return noteAlloc(a)
		})
		for n := 1; n < maxBackends; n++ {
			if greedy[n] == nil || greedy[n+1] == nil {
				continue
			}
			job("matching", fmt.Sprintf("%s %d->%d", c.name, n, n+1), func() error {
				plan, _, err := matching.PlanMigration(greedy[n], greedy[n+1])
				if err != nil {
					return err
				}
				p.results = append(p.results, plan.MoveSize, plan.DropSize)
				return nil
			})
		}
		for n := 1; n <= maxBackends; n++ {
			if greedy[n] == nil {
				continue
			}
			job("sim", fmt.Sprintf("%s n=%d", c.name, n), func() error {
				k := 0
				next := func(*rand.Rand) sim.Request {
					r := c.requests[k%len(c.requests)]
					k++
					return r
				}
				res, err := sim.RunClosedLoop(sim.Options{Alloc: greedy[n], Seed: seed}, next, simRequests)
				if err != nil {
					return err
				}
				if res.Completed != simRequests || res.Unavailable != 0 {
					return fmt.Errorf("completed %d and rejected %d of %d requests", res.Completed, res.Unavailable, simRequests)
				}
				p.results = append(p.results, res.Throughput)
				return nil
			})
		}
		if !c.optimal {
			continue
		}
		for _, n := range optimalBackends {
			job("optimal", fmt.Sprintf("%s n=%d", c.name, n), func() error {
				res, err := core.Optimal(cls, core.UniformBackends(n), core.OptimalOptions{MaxNodes: optimalMaxNodes})
				if err != nil {
					return err
				}
				p.nodes += res.Nodes
				p.results = append(p.results, float64(res.Nodes))
				p.proven = append(p.proven, fmt.Sprintf("%s n=%d: scale %.6f nodes %d ScaleProven=%v SpaceProven=%v",
					c.name, n, res.Scale, res.Nodes, res.ScaleProven, res.SpaceProven))
				return noteAlloc(res.Allocation)
			})
		}
	}
	return p
}

// runPasses runs passes until d has elapsed (at least one).
func runPasses(cases []*allocCase, seed int64, d time.Duration, o *outcome, tr *tracer) []*pass {
	var ps []*pass
	start := time.Now()
	for len(ps) == 0 || time.Since(start) < d {
		t0 := time.Now()
		p := runPass(cases, seed, o, tr)
		p.elapsed = time.Since(t0)
		ps = append(ps, p)
	}
	return ps
}

// passStats summarises passes as the end-to-end figures: medians over
// passes of each pass's job throughput and p50 and p99 job latency, so
// a slow stretch of the window does not move them.
type passStats struct {
	throughput, p50, p99 float64
	jobs                 int
}

func summarise(ps []*pass) passStats {
	var st passStats
	var tput, p50, p99 []float64
	for _, p := range ps {
		st.jobs += len(p.jobs)
		tput = append(tput, ratio(float64(len(p.jobs)), p.elapsed.Seconds()))
		p50 = append(p50, us(quantile(p.jobs, 0.50)))
		p99 = append(p99, us(quantile(p.jobs, 0.99)))
	}
	st.throughput, st.p50, st.p99 = median(tput), median(p50), median(p99)
	return st
}

// stageMS returns the median per-pass time of the given stages in ms.
func stageMS(ps []*pass, stages ...string) float64 {
	var xs []float64
	for _, p := range ps {
		var d time.Duration
		for _, s := range stages {
			d += p.stage[s]
		}
		xs = append(xs, float64(d.Nanoseconds())/1e6)
	}
	return median(xs)
}

// runAllocate runs the offline pipeline workload.
func runAllocate(cfg config) (*outcome, error) {
	o := &outcome{metrics: make(map[string]float64)}
	var (
		cases  []*allocCase
		setups []float64
	)
	for rep := 0; rep < allocSetupReps; rep++ {
		start := processStart
		if rep > 0 {
			// Collect the previous build's garbage first, so no build
			// pays for its predecessor.
			runtime.GC()
			start = time.Now()
		}
		var err error
		if cases, err = allocInputs(cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Fprintf(cfg.report, "setup_s per build: %v\n", setups)

	var all []*pass
	if !cfg.trace {
		ps := runPasses(cases, cfg.seed, cfg.window, o, nil)
		all = ps
		s := summarise(ps)
		o.metrics["setup_s"] = median(setups)
		o.metrics["throughput_ops"] = s.throughput
		o.metrics["latency_p50_us"] = s.p50
		o.metrics["latency_p99_us"] = s.p99
		o.metrics["alloc_scale"] = ps[0].scaleSum
		o.metrics["alloc_replication"] = ratio(ps[0].replSum, float64(ps[0].allocs))
		fmt.Fprintf(cfg.report, "window: %d passes, %d jobs: median per pass %.2f jobs/s, job latency p50 %.1f us p99 %.1f us\n",
			len(ps), s.jobs, s.throughput, s.p50, s.p99)
	} else {
		// Untraced and traced passes in ABBA order, as for the serving
		// workloads.
		o.tr = newTracer()
		before := memCounters()
		u1 := runPasses(cases, cfg.seed, cfg.window/2, o, nil)
		mid := memCounters()
		t1 := runPasses(cases, cfg.seed, cfg.window/2, o, o.tr)
		t2 := runPasses(cases, cfg.seed, cfg.window/2, o, o.tr)
		mid2 := memCounters()
		u2 := runPasses(cases, cfg.seed, cfg.window/2, o, nil)
		after := memCounters()
		untraced, traced := append(u1, u2...), append(t1, t2...)
		su, st := summarise(untraced), summarise(traced)
		g := mid.minus(before).plus(after.minus(mid2))
		m := o.metrics
		m["classify.ms"] = stageMS(traced, "classify")
		m["core.greedy_ms"] = stageMS(traced, "greedy")
		m["core.memetic_ms"] = stageMS(traced, "memetic")
		m["core.optimal_ms"] = stageMS(traced, "optimal")
		m["matching.ms"] = stageMS(traced, "matching")
		m["sim.ms"] = stageMS(traced, "sim")
		m["lp.nodes"] = float64(traced[0].nodes)
		m["lp.us_per_node"] = ratio(1000*m["core.optimal_ms"], m["lp.nodes"])
		m["go.alloc_bytes_per_op"] = ratio(g[cAllocBytes], float64(su.jobs))
		m["go.gc_per_kop"] = ratio(1000*g[cGCs], float64(su.jobs))
		fmt.Fprintf(cfg.report, "untraced: %d passes, %.2f jobs/s, job p50 %.1f us p99 %.1f us\n", len(untraced), su.throughput, su.p50, su.p99)
		fmt.Fprintf(cfg.report, "traced:   %d passes, %.2f jobs/s, job p50 %.1f us p99 %.1f us\n", len(traced), st.throughput, st.p50, st.p99)
		fmt.Fprintf(cfg.report, "tracing overhead: throughput_ops %+.2f jobs/s, latency_p50_us %+.1f us, latency_p99_us %+.1f us; setup_s, alloc_scale and alloc_replication are not traced (+0)\n",
			st.throughput-su.throughput, st.p50-su.p50, st.p99-su.p99)
		all = append(untraced, traced...)
	}

	fmt.Fprintf(cfg.report, "pass ms (optimal, memetic, sim):")
	for _, p := range all {
		fmt.Fprintf(cfg.report, " %.0f (%.0f, %.0f, %.0f)", float64(p.elapsed.Microseconds())/1e3,
			float64(p.stage["optimal"].Microseconds())/1e3, float64(p.stage["memetic"].Microseconds())/1e3, float64(p.stage["sim"].Microseconds())/1e3)
	}
	fmt.Fprintln(cfg.report)
	fmt.Fprintf(cfg.report, "heuristic_s %.6f (classify %.3f ms, greedy %.3f ms, memetic %.3f ms, matching %.3f ms, sim %.3f ms per pass)\n",
		stageMS(all, "classify", "greedy", "memetic", "matching", "sim")/1e3,
		stageMS(all, "classify"), stageMS(all, "greedy"), stageMS(all, "memetic"), stageMS(all, "matching"), stageMS(all, "sim"))
	fmt.Fprintf(cfg.report, "optimal_s %.6f (%d nodes per pass, MaxNodes %d per phase, no time limit)\n",
		stageMS(all, "optimal")/1e3, all[0].nodes, optimalMaxNodes)
	fmt.Fprintf(cfg.report, "alloc_scale %.6f and alloc_replication %.6f over %d allocations per pass\n",
		all[0].scaleSum, ratio(all[0].replSum, float64(all[0].allocs)), all[0].allocs)
	for _, line := range all[0].proven {
		fmt.Fprintf(cfg.report, "optimal %s\n", line)
	}
	for i, p := range all[1:] {
		if !reflect.DeepEqual(p.results, all[0].results) {
			o.problemf("pass %d's allocations, node counts, migration plans or simulations differ from pass 0's", i+1)
			break
		}
	}
	fmt.Fprintf(cfg.report, "error_rate %.6f (%d failed of %d attempted)\n",
		ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)

	all = nil
	heap := liveHeapMB()
	if !cfg.trace {
		o.metrics["live_heap_mb"] = heap
	}
	fmt.Fprintf(cfg.report, "live_heap_mb %.3f\n", heap)
	return o, nil
}

// memCounters reads the Go runtime's allocation counters.
func memCounters() counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cAllocBytes] = float64(ms.TotalAlloc)
	c[cGCs] = float64(ms.NumGC)
	return c
}
