// Command perfbench is the repository benchmark. One invocation runs
// one workload in-process against the qcpa packages, checks every
// output, prints a human-readable report, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	point     prepared primary-key reads over wire v2 (closed loop)
//	tpcapp    the TPC-App request mix as v2 text requests (closed loop)
//	allocate  the offline pipeline: classify, greedy, memetic, MILP,
//	          migration planning and simulation
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// they are the per-layer metrics of a traced run, which also prints
// each layer's self time and the tracing overhead and writes its spans
// under -trace-dir. Build and run it with run.sh; README.md describes
// the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart approximates process start: the first set-up of a run is
// timed from here, so runtime start-up counts toward setup_s.
var processStart = time.Now()

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports with
// -trace 0, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"live_heap_mb", "MB"},
	{"alloc_scale", "x"},
	{"alloc_replication", "x"},
}

// perLayer lists the per-layer metrics every workload reports with
// -trace 1, in BENCHMARK.json order. A layer a workload does not reach
// reports 0.
var perLayer = []metricDef{
	{"server.overhead_us_p50", "us"},
	{"server.overhead_us_p99", "us"},
	{"server.queue_wait_us_mean", "us"},
	{"server.frames_per_flush", "ratio"},
	{"cluster.exec_us_p50", "us"},
	{"cluster.exec_us_p99", "us"},
	{"cluster.direct_us_p50", "us"},
	{"cluster.read_engine_us_mean", "us"},
	{"cluster.write_apply_us_mean", "us"},
	{"cluster.commit_wait_us_mean", "us"},
	{"cluster.batch_mean", "count"},
	{"cluster.rounds", "count"},
	{"cluster.fanout_width_mean", "count"},
	{"cluster.retries", "count"},
	{"sqlmini.parse_us_mean", "us"},
	{"sqlmini.read_us_p50", "us"},
	{"sqlmini.round_us_mean", "us"},
	{"sqlmini.plan_hit_ratio", "ratio"},
	{"sqlmini.scanned_per_row", "ratio"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_per_kop", "count"},
	{"classify.ms", "ms"},
	{"core.greedy_ms", "ms"},
	{"core.memetic_ms", "ms"},
	{"core.optimal_ms", "ms"},
	{"lp.nodes", "count"},
	{"lp.us_per_node", "us"},
	{"matching.ms", "ms"},
	{"sim.ms", "ms"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	traceDir string
	report   io.Writer
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]float64
	// tr holds the spans of a traced run.
	tr *tracer
}

func (o *outcome) problemf(format string, args ...interface{}) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: point, tpcapp or allocate")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory for trace files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}

	// GOMAXPROCS equals the number of CPUs; each result records it.
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		traceDir: *traceDir,
		report:   os.Stdout,
	}
	fmt.Fprintf(cfg.report, "perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d go=%s\n",
		cfg.workload, cfg.seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())

	var (
		o   *outcome
		err error
	)
	switch cfg.workload {
	case "point":
		o, err = runServing(cfg, &pointLoad{})
	case "tpcapp":
		o, err = runServing(cfg, &tpcappLoad{})
	case "allocate":
		o, err = runAllocate(cfg)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want point, tpcapp or allocate)\n", cfg.workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !cfg.trace {
			o.problemf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.problemf("metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(cfg.report, "metric %-28s %14.4f %s\n", d.name, v, d.unit)
	}
	if o.tr != nil {
		o.tr.report(cfg.report)
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		meta := map[string]interface{}{
			"workload": cfg.workload, "seed": cfg.seed, "seconds": *seconds,
			"gomaxprocs": runtime.GOMAXPROCS(0),
		}
		if err := o.tr.write(path, meta); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(cfg.report, "trace written to %s\n", path)
	}
	for _, p := range o.problems {
		fmt.Fprintf(cfg.report, "CHECK FAILED: %s\n", p)
	}
	res.Correct = len(o.problems) == 0 && o.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
