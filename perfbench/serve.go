package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"qcpa/internal/cluster"
)

const (
	// setupReps is how often a run builds its fixture; setup_s is the
	// median. Every build but the last is torn down again.
	setupReps = 5
	// intervals is how many equal parts a measured window is cut into.
	// The end-to-end figures are medians over the parts, so a stall in
	// one part (a collection, a noisy neighbour) does not move them.
	intervals = 6
	// stationaryBound is the share by which the throughput at the start
	// and at the end of the measured time may differ before the run is
	// flagged non-stationary: the throughput_ops bound of BENCHMARK.json.
	stationaryBound = 0.25
	// accountTolerance is how closely server.overhead_us_p50 plus
	// cluster.exec_us_p50 must match the client latency_p50_us.
	accountTolerance = 0.25
)

// reply is the outcome of one request.
type reply struct {
	serverUS int64
	write    bool
	// fail is a transport error or a refused or failed request.
	fail error
	// bad is a wrong answer.
	bad error
	// exhausted means the worker's pre-generated stream ran out.
	exhausted bool
}

// load is one serving workload's request streams and output checks.
type load interface {
	// setup builds the per-worker request streams from the seed, in
	// worker order, and prepares what the connections need. The wire
	// streams cover wire of closed-loop time and the direct streams
	// (traced runs only) cover direct.
	setup(f *fixture, wire, direct time.Duration) error
	// do sends request i of worker w over the wire and checks the reply.
	do(f *fixture, w, i int) reply
	// direct sends request i of worker w's direct stream straight into
	// the cluster and checks the result.
	direct(ctx context.Context, f *fixture, w, i int) (*cluster.Result, reply)
	// layers runs the standalone sqlmini passes of a traced run.
	layers(f *fixture, o *outcome, budget time.Duration, batch int, tr *tracer) error
	// release drops the streams so the live heap measures the system.
	release()
}

// segment is what one closed-loop drive measured.
type segment struct {
	elapsed    time.Duration
	ok, failed int64
	// lat, readLat and writeLat are client latencies in ns; server is
	// the server-reported cluster time in us; overhead is client latency
	// minus server time in ns.
	lat, readLat, writeLat []int64
	server, overhead       []int64
	// iv is the interval each lat sample completed in; d is the
	// segment's nominal length.
	iv            []uint8
	d             time.Duration
	before, after counters
}

func (s *segment) throughput() float64 { return ratio(float64(s.ok), s.elapsed.Seconds()) }

// byInterval returns each interval's throughput and latency samples;
// the last interval also holds the replies that arrived after the
// deadline.
func (s *segment) byInterval() (tput []float64, lats [][]int64) {
	lats = make([][]int64, intervals)
	for i, x := range s.lat {
		lats[s.iv[i]] = append(lats[s.iv[i]], x)
	}
	step := s.d / intervals
	for k := range lats {
		dur := step
		if k == intervals-1 {
			dur = s.elapsed - step*(intervals-1)
		}
		tput = append(tput, ratio(float64(len(lats[k])), dur.Seconds()))
	}
	return tput, lats
}

// medians returns the medians over intervals of throughput, p50 and p99
// latency (us).
func (s *segment) medians() (tput, p50, p99 float64) {
	ts, lats := s.byInterval()
	var q50, q99 []float64
	for _, l := range lats {
		q50 = append(q50, us(quantile(l, 0.50)))
		q99 = append(q99, us(quantile(l, 0.99)))
	}
	return median(ts), median(q50), median(q99)
}

// absorb adds p's counts and samples to s.
func (s *segment) absorb(p *segment) {
	s.ok += p.ok
	s.failed += p.failed
	s.lat = append(s.lat, p.lat...)
	s.readLat = append(s.readLat, p.readLat...)
	s.writeLat = append(s.writeLat, p.writeLat...)
	s.server = append(s.server, p.server...)
	s.overhead = append(s.overhead, p.overhead...)
	s.iv = append(s.iv, p.iv...)
}

// merge folds segments into one. Its samples keep the interval of
// their own segment.
func merge(segs ...*segment) *segment {
	m := &segment{}
	for _, s := range segs {
		m.absorb(s)
		m.elapsed += s.elapsed
		m.d += s.d
		m.before = m.before.plus(s.before)
		m.after = m.after.plus(s.after)
	}
	return m
}

// harness drives a load against a fixture.
type harness struct {
	f      *fixture
	ld     load
	o      *outcome
	mu     sync.Mutex
	cursor [workers]int
	direct [workers]int
}

// problem records a failed check; it keeps the first few.
func (h *harness) problem(format string, args ...interface{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.o.problems) < 20 {
		h.o.problemf(format, args...)
	}
}

// drive runs the closed loop for d: every worker sends its next request
// only after the previous reply arrived.
func (h *harness) drive(d time.Duration, tr *tracer) *segment {
	seg := &segment{d: d, before: readCounters(h.f)}
	parts := make([]segment, workers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &parts[w]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				r := h.ld.do(h.f, w, h.cursor[w])
				t1 := time.Now()
				if r.exhausted {
					h.problem("worker %d exhausted its request stream after %d requests", w, h.cursor[w])
					return
				}
				h.cursor[w]++
				if r.fail != nil {
					p.failed++
					h.problem("worker %d request %d failed: %v", w, h.cursor[w]-1, r.fail)
					return
				}
				if r.bad != nil {
					h.problem("worker %d request %d: %v", w, h.cursor[w]-1, r.bad)
				}
				ns := t1.Sub(t0).Nanoseconds()
				p.ok++
				p.lat = append(p.lat, ns)
				if r.write {
					p.writeLat = append(p.writeLat, ns)
				} else {
					p.readLat = append(p.readLat, ns)
				}
				p.server = append(p.server, r.serverUS)
				p.overhead = append(p.overhead, ns-r.serverUS*1000)
				k := int(t1.Sub(start) * intervals / d)
				if k >= intervals {
					k = intervals - 1
				}
				p.iv = append(p.iv, uint8(k))
				tr.add(t0, part{"client.call", "server", time.Duration(ns)},
					part{"cluster.exec", "cluster", time.Duration(r.serverUS) * time.Microsecond})
			}
		}(w)
	}
	wg.Wait()
	seg.elapsed = time.Since(start)
	for w := range parts {
		seg.absorb(&parts[w])
	}
	seg.after = readCounters(h.f)
	h.o.attempted += seg.ok + seg.failed
	h.o.failed += seg.failed
	return seg
}

// directPass sends the direct streams straight into the cluster for d,
// with the same closed-loop concurrency as the wire, and returns the
// per-call latencies in ns plus the rows scanned and returned by reads.
func (h *harness) directPass(d time.Duration, tr *tracer) (lat []int64, scanned, rows int64) {
	deadline := time.Now().Add(d)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []int64
			var sc, rs, ok, failed int64
			defer func() {
				h.mu.Lock()
				lat = append(lat, local...)
				scanned += sc
				rows += rs
				h.o.attempted += ok + failed
				h.o.failed += failed
				h.mu.Unlock()
			}()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				res, r := h.ld.direct(ctx, h.f, w, h.direct[w])
				el := time.Since(t0)
				if r.exhausted {
					h.problem("worker %d exhausted its direct stream after %d requests", w, h.direct[w])
					return
				}
				h.direct[w]++
				if r.fail != nil {
					failed++
					h.problem("direct request failed: %v", r.fail)
					return
				}
				if r.bad != nil {
					h.problem("direct request: %v", r.bad)
				}
				ok++
				local = append(local, el.Nanoseconds())
				if !r.write {
					sc += res.Scanned
					rs += int64(res.Rows)
				}
				tr.add(t0, part{"cluster.direct", "cluster", el})
			}
		}(w)
	}
	wg.Wait()
	return lat, scanned, rows
}

// runServing runs the point or tpcapp workload.
func runServing(cfg config, ld load) (*outcome, error) {
	o := &outcome{metrics: make(map[string]float64)}
	warmup := cfg.window / 10
	wire, direct := warmup+cfg.window, time.Duration(0)
	if cfg.trace {
		wire += cfg.window
		direct = cfg.window / 5
	}

	var (
		f      *fixture
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		start := processStart
		if rep > 0 {
			// Collect the previous build's garbage first, so no build
			// pays for its predecessor.
			runtime.GC()
			start = time.Now()
		}
		var err error
		if f, err = newFixture(cfg.seed); err != nil {
			return nil, err
		}
		if err = ld.setup(f, wire, direct); err != nil {
			f.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < setupReps-1 {
			f.close()
		}
	}
	defer f.close()
	h := &harness{f: f, ld: ld, o: o}
	fmt.Fprintf(cfg.report, "setup_s per build: %v\n", setups)
	fmt.Fprintf(cfg.report, "allocation: %d backends, tables %v\n", nBackends, f.holders())

	h.drive(warmup, nil)
	olStart := f.tableRows("order_line")
	// h1 and h2 are the throughputs at the start and at the end of the
	// measured time.
	var h1, h2 float64
	if !cfg.trace {
		seg := h.drive(cfg.window, nil)
		reportSegment(cfg, seg, "window")
		tput, p50, p99 := seg.medians()
		o.metrics["throughput_ops"] = tput
		o.metrics["latency_p50_us"] = p50
		o.metrics["latency_p99_us"] = p99
		o.metrics["alloc_scale"] = f.alloc.Scale()
		o.metrics["alloc_replication"] = f.alloc.DegreeOfReplication()
		o.metrics["setup_s"] = median(setups)
		ts, lats := seg.byInterval()
		fmt.Fprintf(cfg.report, "per interval (%d of %.3fs):", intervals, (cfg.window / intervals).Seconds())
		for k := range ts {
			fmt.Fprintf(cfg.report, " [%.1f ops/s p50 %.1f p99 %.1f us]", ts[k], us(quantile(lats[k], 0.5)), us(quantile(lats[k], 0.99)))
		}
		fmt.Fprintln(cfg.report)
		h1, h2 = avg(ts[:intervals/2]), avg(ts[intervals/2:])
	} else {
		// Untraced and traced halves in ABBA order, so drift in a
		// workload whose tables grow cancels out of the comparison.
		o.tr = newTracer()
		u1 := h.drive(cfg.window/2, nil)
		t1 := h.drive(cfg.window/2, o.tr)
		t2 := h.drive(cfg.window/2, o.tr)
		u2 := h.drive(cfg.window/2, nil)
		untraced, traced := merge(u1, u2), merge(t1, t2)
		reportSegment(cfg, untraced, "untraced")
		reportSegment(cfg, traced, "traced")
		tracedLayers(cfg, h, o, untraced, traced, direct)
		h1, h2 = u1.throughput(), u2.throughput()
	}
	olEnd := f.tableRows("order_line")
	drift := math.Abs(h1-h2) / ((h1 + h2) / 2)
	verdict := "stationary"
	if drift > stationaryBound {
		verdict = "NOT stationary"
	}
	fmt.Fprintf(cfg.report, "start/end throughput: %.1f / %.1f ops/s (differ by %.1f%%, bound %.0f%%): %s; order_line rows %d -> %d\n",
		h1, h2, 100*drift, 100*stationaryBound, verdict, olStart, olEnd)

	f.checkReplicas(o)
	if n := f.cl.Metrics().Reliability.Retries; n != 0 {
		o.problemf("the cluster retried %d reads", n)
	}
	fmt.Fprintf(cfg.report, "error_rate %.6f (%d failed of %d attempted)\n",
		ratio(float64(o.failed), float64(o.attempted)), o.failed, o.attempted)

	ld.release()
	heap := liveHeapMB()
	if !cfg.trace {
		o.metrics["live_heap_mb"] = heap
	}
	fmt.Fprintf(cfg.report, "live_heap_mb %.3f\n", heap)
	return o, nil
}

// reportSegment prints a segment's client-side figures.
func reportSegment(cfg config, s *segment, label string) {
	fmt.Fprintf(cfg.report, "%s: %d ok, %d failed in %.3fs: throughput %.1f ops/s, latency p50 %.1f us p99 %.1f us (%d samples), read p50 %.1f us (%d), write p50 %.1f us (%d)\n",
		label, s.ok, s.failed, s.elapsed.Seconds(), s.throughput(),
		us(quantile(s.lat, 0.5)), us(quantile(s.lat, 0.99)), len(s.lat),
		us(quantile(s.readLat, 0.5)), len(s.readLat), us(quantile(s.writeLat, 0.5)), len(s.writeLat))
}

// tracedLayers computes the per-layer metrics of a traced run from the
// traced segments, the direct pass and the sqlmini passes; the Go
// allocation figures come from the untraced segments, since recording
// spans allocates.
func tracedLayers(cfg config, h *harness, o *outcome, untraced, traced *segment, direct time.Duration) {
	m := o.metrics
	c := traced.after.minus(traced.before)
	g := untraced.after.minus(untraced.before)
	ops := float64(traced.ok)

	m["server.overhead_us_p50"] = us(quantile(traced.overhead, 0.50))
	m["server.overhead_us_p99"] = us(quantile(traced.overhead, 0.99))
	m["server.queue_wait_us_mean"] = ratio(c[cQueueSum], c[cQueueN])
	m["server.frames_per_flush"] = ratio(c[cFramesOut], c[cFlushes])
	m["cluster.exec_us_p50"] = float64(quantile(traced.server, 0.50))
	m["cluster.exec_us_p99"] = float64(quantile(traced.server, 0.99))
	m["cluster.read_engine_us_mean"] = ratio(c[cReadSum], c[cReadN])
	m["cluster.write_apply_us_mean"] = ratio(c[cWriteSum], c[cWriteN])
	m["cluster.commit_wait_us_mean"] = ratio(c[cWaitSum], c[cUpdates])
	m["cluster.batch_mean"] = ratio(c[cUpdates], c[cRounds])
	m["cluster.rounds"] = c[cRounds]
	m["cluster.fanout_width_mean"] = ratio(c[cFanSum], c[cFanN])
	m["cluster.retries"] = c[cRetries]
	m["sqlmini.plan_hit_ratio"] = ratio(c[cPlanHits], c[cPlanHits]+c[cPlanMisses])
	m["go.alloc_bytes_per_op"] = ratio(g[cAllocBytes], float64(untraced.ok))
	m["go.gc_per_kop"] = ratio(1000*g[cGCs], float64(untraced.ok))

	// Tracing overhead: traced minus untraced, per end-to-end metric.
	tp50, up50 := us(quantile(traced.lat, 0.5)), us(quantile(untraced.lat, 0.5))
	tp99, up99 := us(quantile(traced.lat, 0.99)), us(quantile(untraced.lat, 0.99))
	fmt.Fprintf(cfg.report, "tracing overhead: throughput_ops %+.1f ops/s, latency_p50_us %+.1f us, latency_p99_us %+.1f us; setup_s, alloc_scale and alloc_replication are not traced (+0)\n",
		traced.throughput()-untraced.throughput(), tp50-up50, tp99-up99)
	sum := m["server.overhead_us_p50"] + m["cluster.exec_us_p50"]
	gap := math.Abs(sum-tp50) / tp50
	verdict := "within"
	if gap > accountTolerance {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(cfg.report, "accounting: server.overhead_us_p50 %.1f + cluster.exec_us_p50 %.1f = %.1f us vs traced latency_p50_us %.1f us: gap %.1f%%, %s the %.0f%% tolerance (%.0f ops)\n",
		m["server.overhead_us_p50"], m["cluster.exec_us_p50"], sum, tp50, 100*gap, verdict, 100*accountTolerance, ops)

	lat, scanned, rows := h.directPass(direct, o.tr)
	m["cluster.direct_us_p50"] = us(quantile(lat, 0.5))
	m["sqlmini.scanned_per_row"] = ratio(float64(scanned), float64(rows))
	fmt.Fprintf(cfg.report, "direct pass: %d calls, p50 %.1f us, scanned %d rows for %d returned\n",
		len(lat), us(quantile(lat, 0.5)), scanned, rows)
	batch := int(math.Round(m["cluster.batch_mean"]))
	if batch < 1 {
		batch = 1
	}
	if err := h.ld.layers(h.f, o, cfg.window/10, batch, o.tr); err != nil {
		h.problem("sqlmini passes: %v", err)
	}
}

// liveHeapMB forces a collection and returns the heap in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Counter indexes: the program's exported counters a segment reads
// before and after, kept as sums so deltas give exact means.
const (
	cReadN = iota
	cReadSum
	cWriteN
	cWriteSum
	cRounds
	cUpdates
	cWaitSum
	cFanN
	cFanSum
	cRetries
	cPlanHits
	cPlanMisses
	cQueueN
	cQueueSum
	cFramesOut
	cFlushes
	cAllocBytes
	cGCs
	nCounters
)

type counters [nCounters]float64

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) plus(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// readCounters reads Cluster.Metrics, Server.Admission and the Go
// runtime's allocation counters.
func readCounters(f *fixture) counters {
	c := memCounters()
	snap := f.cl.Metrics()
	for _, b := range snap.Backends {
		c[cReadN] += float64(b.ReadLatency.Count)
		c[cReadSum] += float64(b.ReadLatency.Count) * b.ReadLatency.MeanUS
		c[cWriteN] += float64(b.WriteLatency.Count)
		c[cWriteSum] += float64(b.WriteLatency.Count) * b.WriteLatency.MeanUS
	}
	gc := snap.GroupCommit
	c[cRounds] = float64(gc.Rounds)
	c[cUpdates] = float64(gc.Updates)
	c[cWaitSum] = float64(gc.Updates) * gc.MeanWaitUS
	c[cFanN] = float64(snap.Fanout.Writes)
	c[cFanSum] = float64(snap.Fanout.Writes) * snap.Fanout.MeanWidth
	c[cRetries] = float64(snap.Reliability.Retries)
	c[cPlanHits] = float64(snap.Planner.PlanHits)
	c[cPlanMisses] = float64(snap.Planner.PlanMisses)
	adm := f.srv.Admission()
	c[cQueueN] = float64(adm.QueueWait.Count)
	c[cQueueSum] = float64(adm.QueueWait.Count) * adm.QueueWait.MeanUS
	c[cFramesOut] = float64(adm.Wire.FramesOut)
	c[cFlushes] = float64(adm.Wire.Flushes)
	return c
}
