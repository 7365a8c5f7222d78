package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"qcpa/internal/stats"
)

// last returns the final Y value of a series.
func last(s *Series) float64 { return s.Y[len(s.Y)-1] }

// TestFig4aShape: partial replication beats full replication, which
// beats random (the Figure 4(a) ordering), and all but random scale
// with the cluster.
func TestFig4aShape(t *testing.T) {
	tab, err := Fig4aTPCHThroughput(Quick())
	if err != nil {
		t.Fatal(err)
	}
	full, table, column, random := tab.Get("full"), tab.Get("table"), tab.Get("column"), tab.Get("random")
	if full == nil || table == nil || column == nil || random == nil {
		t.Fatal("missing series")
	}
	n := len(full.Y)
	if column.Y[n-1] < full.Y[n-1] {
		t.Fatalf("column (%.2f) below full (%.2f) at max backends", column.Y[n-1], full.Y[n-1])
	}
	if table.Y[n-1] < full.Y[n-1]*0.95 {
		t.Fatalf("table (%.2f) clearly below full (%.2f)", table.Y[n-1], full.Y[n-1])
	}
	if random.Y[n-1] > table.Y[n-1] {
		t.Fatalf("random (%.2f) above table-based (%.2f)", random.Y[n-1], table.Y[n-1])
	}
	// Near-linear scaling for the partial allocations: the last point
	// must be at least 0.7 * n * first point.
	if column.Y[n-1] < 0.7*float64(n)*column.Y[0] {
		t.Fatalf("column-based does not scale: %.2f at n=%d vs %.2f at n=1", column.Y[n-1], n, column.Y[0])
	}
	// Random plateaus: well below linear.
	if random.Y[n-1] > 0.75*float64(n)*random.Y[0] {
		t.Fatalf("random allocation scales too well: %v", random.Y)
	}
	if !strings.Contains(tab.String(), "Fig 4(a)") {
		t.Fatal("rendering broken")
	}
}

// TestFig4bDeviationSmall: the paper reports at most 6% deviation for
// the read-only workload; allow a loose 15% in the small quick run.
func TestFig4bDeviationSmall(t *testing.T) {
	tab, err := Fig4bTPCHDeviation(Quick())
	if err != nil {
		t.Fatal(err)
	}
	avg, minS, maxS := tab.Get("average"), tab.Get("minimum"), tab.Get("maximum")
	for i := range avg.Y {
		if minS.Y[i] > avg.Y[i]+1e-9 || maxS.Y[i] < avg.Y[i]-1e-9 {
			t.Fatalf("min/avg/max inconsistent at %d", i)
		}
		if avg.Y[i] > 0 && (maxS.Y[i]-minS.Y[i])/avg.Y[i] > 0.15 {
			t.Fatalf("deviation %.1f%% at n=%v", (maxS.Y[i]-minS.Y[i])/avg.Y[i]*100, avg.X[i])
		}
	}
}

// TestFig4cShape: full replication degree equals n; table-based sits a
// bit below (the fact tables dominate); column-based is far lower; the
// optimal is never above the heuristic.
func TestFig4cShape(t *testing.T) {
	opts := Quick()
	tab, err := Fig4cReplicationDegree(opts)
	if err != nil {
		t.Fatal(err)
	}
	full, table, column, opt := tab.Get("full"), tab.Get("table"), tab.Get("column"), tab.Get("optimal-table")
	for i, x := range full.X {
		if math.Abs(full.Y[i]-x) > 1e-9 {
			t.Fatalf("full replication degree at n=%v is %v", x, full.Y[i])
		}
		if table.Y[i] > full.Y[i]+1e-9 {
			t.Fatalf("table degree above full at n=%v", x)
		}
		if column.Y[i] > table.Y[i]+1e-9 {
			t.Fatalf("column degree above table at n=%v", x)
		}
	}
	// Column-based saves the paper's ~65% at the top end.
	nIdx := len(full.Y) - 1
	if column.Y[nIdx] > 0.7*full.Y[nIdx] {
		t.Fatalf("column degree %.2f not far below full %.2f", column.Y[nIdx], full.Y[nIdx])
	}
	// Optimal <= greedy at the same n (table granularity).
	for i, x := range opt.X {
		g, ok := valueAt(*table, x, i)
		if !ok {
			t.Fatalf("no greedy value at %v", x)
		}
		if opt.Y[i] > g+1e-6 {
			t.Fatalf("optimal degree %v above greedy %v at n=%v", opt.Y[i], g, x)
		}
	}
}

// TestFig4dShape: despite the fragmentation overhead, the column-based
// allocation installs faster than full replication for larger clusters
// (less data to ship per backend).
func TestFig4dShape(t *testing.T) {
	tab, err := Fig4dAllocationTime(Quick())
	if err != nil {
		t.Fatal(err)
	}
	full, column := tab.Get("full"), tab.Get("column")
	if last(column) >= last(full) {
		t.Fatalf("column install (%.3f) not below full (%.3f) at max backends", last(column), last(full))
	}
}

// TestFig4eShape: both scale factors scale nearly linearly and
// column-based keeps up with full replication.
func TestFig4eShape(t *testing.T) {
	tab, err := Fig4eTPCHScaling(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tab.Series {
		if s.Y[0] != 1 {
			t.Fatalf("%s: baseline not 1", s.Name)
		}
		nMax := s.X[len(s.X)-1]
		if last(&s) < 0.6*nMax {
			t.Fatalf("%s: relative throughput %.2f at n=%v not scaling", s.Name, last(&s), nMax)
		}
	}
}

// TestFig4fShape: full replication plateaus under Amdahl while the
// partial allocations keep climbing — the paper's 2.4x gap at 10
// backends (smaller here in quick mode, but strictly ordered).
func TestFig4fShape(t *testing.T) {
	opts := Quick()
	tab, err := Fig4fTPCAppSpeedup(opts)
	if err != nil {
		t.Fatal(err)
	}
	full, table, column := tab.Get("full"), tab.Get("table"), tab.Get("column")
	n := float64(len(full.Y))
	amdahl := 1 / (0.75/n + 0.25)
	if last(full) > amdahl*1.2 {
		t.Fatalf("full speedup %.2f above Amdahl %.2f", last(full), amdahl)
	}
	if last(table) <= last(full) || last(column) <= last(full) {
		t.Fatalf("partial (%.2f/%.2f) not above full (%.2f)", last(table), last(column), last(full))
	}
}

// TestFig4gOrdering: absolute throughput — both partial allocations
// beat full replication at the top end.
func TestFig4gOrdering(t *testing.T) {
	tab, err := Fig4gTPCAppThroughput(Quick())
	if err != nil {
		t.Fatal(err)
	}
	full, table, column := tab.Get("full"), tab.Get("table"), tab.Get("column")
	if last(table) <= last(full) {
		t.Fatalf("table %.0f not above full %.0f", last(table), last(full))
	}
	if last(column) <= last(full) {
		t.Fatalf("column %.0f not above full %.0f", last(column), last(full))
	}
}

// TestFig4hDeviationLargerThanReadOnly: the read-write deviation
// exceeds the read-only one (Figure 4(h) vs 4(b)).
func TestFig4hDeviationLargerThanReadOnly(t *testing.T) {
	opts := Quick()
	rw, err := Fig4hTPCAppDeviation(opts)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Fig4bTPCHDeviation(opts)
	if err != nil {
		t.Fatal(err)
	}
	rel := func(tab *Table) float64 {
		avg, minS, maxS := tab.Get("average"), tab.Get("minimum"), tab.Get("maximum")
		i := len(avg.Y) - 1
		if avg.Y[i] == 0 {
			return 0
		}
		return (maxS.Y[i] - minS.Y[i]) / avg.Y[i]
	}
	if rel(rw) < rel(ro)-1e-9 {
		t.Fatalf("read-write deviation %.4f below read-only %.4f", rel(rw), rel(ro))
	}
}

// TestFig4iShape: at large scale full replication falls behind early
// (the paper even measures a slowdown at 10 nodes) while the partial
// allocations keep scaling.
func TestFig4iShape(t *testing.T) {
	tab, err := Fig4iTPCAppLargeScale(Quick())
	if err != nil {
		t.Fatal(err)
	}
	full, table, column := tab.Get("full"), tab.Get("table"), tab.Get("column")
	if last(full) >= last(table) || last(full) >= last(column) {
		t.Fatalf("full (%.2f) not below partial (%.2f/%.2f)", last(full), last(table), last(column))
	}
	// ~1:1 update weight caps full replication around 1/(0.5/n+0.5) < 2.
	if last(full) > 2.2 {
		t.Fatalf("full replication relative throughput %.2f too high for 50%% updates", last(full))
	}
}

// TestFig4jShape: the read-write workload is harder to balance.
func TestFig4jShape(t *testing.T) {
	tab, err := Fig4jLoadBalance(Quick())
	if err != nil {
		t.Fatal(err)
	}
	h, app := tab.Get("TPC-H"), tab.Get("TPC-App")
	if last(app) < last(h)-1e-9 {
		t.Fatalf("TPC-App deviation %.3f below TPC-H %.3f", last(app), last(h))
	}
	if h.Y[0] != 0 && app.Y[0] != 0 {
		// n=1 is trivially balanced.
		t.Fatalf("single-backend deviation not zero: %v / %v", h.Y[0], app.Y[0])
	}
}

// TestFig4kShape: TPC-H's hottest table lands everywhere; TPC-App's
// write-only order_line table stays on exactly one backend.
func TestFig4kShape(t *testing.T) {
	opts := Quick()
	tab, err := Fig4kReplicationHistogramTable(opts)
	if err != nil {
		t.Fatal(err)
	}
	h, app := tab.Get("TPC-H"), tab.Get("TPC-App")
	n := len(h.Y)
	if h.Y[n-1] < 1 {
		t.Fatalf("TPC-H: no table replicated on every backend (lineitem should be): %v", h.Y)
	}
	if app.Y[0] < 1 {
		t.Fatalf("TPC-App: no single-replica table (order_line should be): %v", app.Y)
	}
	// Totals match the table counts (8 and 7).
	sum := func(s *Series) float64 {
		t := 0.0
		for _, v := range s.Y {
			t += v
		}
		return t
	}
	if math.Abs(sum(h)-8) > 0.5 || math.Abs(sum(app)-7) > 0.5 {
		t.Fatalf("histogram totals %v / %v, want 8 / 7 tables", sum(h), sum(app))
	}
}

// TestFig4lShape: column-granularity histograms have many more
// fragments and a strong single-replica mode (the algorithm's effort to
// reduce replication).
func TestFig4lShape(t *testing.T) {
	tab, err := Fig4lReplicationHistogramColumn(Quick())
	if err != nil {
		t.Fatal(err)
	}
	h := tab.Get("TPC-H")
	sum := 0.0
	for _, v := range h.Y {
		sum += v
	}
	if sum < 20 {
		t.Fatalf("TPC-H column histogram counts only %.0f fragments", sum)
	}
	if h.Y[0] < h.Y[len(h.Y)-1] {
		t.Fatalf("single-replica columns (%v) not dominating over all-replica (%v)", h.Y[0], h.Y[len(h.Y)-1])
	}
}

// TestFig5aShape: the active-node curve follows the diurnal request
// curve.
func TestFig5aShape(t *testing.T) {
	tab, err := Fig5aAutoscaleNodes(Quick())
	if err != nil {
		t.Fatal(err)
	}
	reqs, nodes := tab.Get("requests/10min"), tab.Get("active nodes")
	if len(reqs.Y) != len(nodes.Y) {
		t.Fatal("series misaligned")
	}
	// Nodes at the request peak exceed nodes at the request trough.
	peak, trough := 0, 0
	for i := range reqs.Y {
		if reqs.Y[i] > reqs.Y[peak] {
			peak = i
		}
		if reqs.Y[i] < reqs.Y[trough] {
			trough = i
		}
	}
	if nodes.Y[peak] <= nodes.Y[trough] {
		t.Fatalf("nodes at peak (%v) not above nodes at trough (%v)", nodes.Y[peak], nodes.Y[trough])
	}
}

// TestFig5bShape: scaling costs only a modest latency premium and stays
// bounded.
func TestFig5bShape(t *testing.T) {
	tab, err := Fig5bAutoscaleLatency(Quick())
	if err != nil {
		t.Fatal(err)
	}
	w, wo := tab.Get("with scaling"), tab.Get("without scaling")
	var wSum, woSum float64
	for i := range w.Y {
		wSum += w.Y[i]
		woSum += wo.Y[i]
	}
	if wSum < woSum {
		t.Fatalf("scaling latency (%.1f) below static baseline (%.1f): suspicious", wSum, woSum)
	}
	if wSum > 20*woSum {
		t.Fatalf("scaling latency %.1f explodes vs %.1f", wSum, woSum)
	}
}

// TestFig6Rendering: the class-mix figure covers the full day for all
// five classes.
func TestFig6Rendering(t *testing.T) {
	tab, err := Fig6ClassDistribution(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Series) != 5 {
		t.Fatalf("series = %d", len(tab.Series))
	}
	for _, s := range tab.Series {
		if len(s.Y) != 144 {
			t.Fatalf("%s: %d buckets", s.Name, len(s.Y))
		}
	}
}

// TestSpeedupModel: predictions bound the measurements.
func TestSpeedupModel(t *testing.T) {
	tab, err := SpeedupModelTable(Quick())
	if err != nil {
		t.Fatal(err)
	}
	pf, mf := tab.Get("full predicted"), tab.Get("full measured")
	pp, mp := tab.Get("partial bound"), tab.Get("table measured")
	i := len(pf.Y) - 1
	if mf.Y[i] > pf.Y[i]*1.2 {
		t.Fatalf("full measured %.2f above prediction %.2f", mf.Y[i], pf.Y[i])
	}
	if mp.Y[i] > pp.Y[i]*1.15 {
		t.Fatalf("partial measured %.2f above bound %.2f", mp.Y[i], pp.Y[i])
	}
}

// TestRobustnessTable reproduces the 25% -> 27% => 3.7 example.
func TestRobustnessTable(t *testing.T) {
	tab, err := RobustnessTable(Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := tab.Get("speedup")
	if s.Y[0] != 4 {
		t.Fatalf("undrifted speedup = %v, want 4", s.Y[0])
	}
	if math.Abs(s.Y[2]-4/1.08) > 1e-9 {
		t.Fatalf("27%% speedup = %v, want %v (paper: 3.7)", s.Y[2], 4/1.08)
	}
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] > s.Y[i-1]+1e-12 {
			t.Fatal("speedup must fall monotonically with drift")
		}
	}
}

// TestKSafetyTable: replication grows with k; read-only speedup is
// unaffected while the update workload pays.
func TestKSafetyTable(t *testing.T) {
	tab, err := KSafetyTable(Quick())
	if err != nil {
		t.Fatal(err)
	}
	repH, spH := tab.Get("TPC-H replication"), tab.Get("TPC-H speedup")
	repA, spA := tab.Get("TPC-App replication"), tab.Get("TPC-App speedup")
	for i := 1; i < len(repH.Y); i++ {
		if repH.Y[i] < repH.Y[i-1]-1e-9 || repA.Y[i] < repA.Y[i-1]-1e-9 {
			t.Fatal("replication must not shrink with k")
		}
	}
	// Read-only: theoretical speedup unchanged (linear).
	for i := 1; i < len(spH.Y); i++ {
		if math.Abs(spH.Y[i]-spH.Y[0]) > 1e-6 {
			t.Fatalf("read-only k-safety changed speedup: %v", spH.Y)
		}
	}
	// Updates: k=2 speedup does not exceed k=0.
	if spA.Y[2] > spA.Y[0]+1e-9 {
		t.Fatalf("update k-safety speedup rose: %v", spA.Y)
	}
}

// TestAblations exercises the four ablation tables.
func TestAblations(t *testing.T) {
	opts := Quick()
	a1, err := AblationSolvers(opts)
	if err != nil {
		t.Fatal(err)
	}
	gs, ms, os := a1.Get("greedy scale"), a1.Get("memetic scale"), a1.Get("optimal scale")
	for i := range gs.Y {
		if ms.Y[i] > gs.Y[i]+1e-9 {
			t.Fatalf("memetic scale above greedy at %v", gs.X[i])
		}
		if os.Y[i] > ms.Y[i]+1e-6 {
			t.Fatalf("optimal scale above memetic at %v", gs.X[i])
		}
	}
	a2, err := AblationGranularity(opts)
	if err != nil {
		t.Fatal(err)
	}
	classes := a2.Get("classes")
	if classes.Y[1] <= classes.Y[0] {
		t.Fatal("column-based must yield more classes")
	}
	a3, err := AblationScheduler(opts)
	if err != nil {
		t.Fatal(err)
	}
	lp := a3.Get("least-pending")
	rnd := a3.Get("random")
	if last(lp) < last(rnd)*0.95 {
		t.Fatalf("least-pending %.2f clearly below random %.2f", last(lp), last(rnd))
	}
	a4, err := AblationMatching(opts)
	if err != nil {
		t.Fatal(err)
	}
	hung, naive := a4.Get("hungarian"), a4.Get("naive")
	for i := range hung.Y {
		if hung.Y[i] > naive.Y[i]+1e-9 {
			t.Fatalf("hungarian moves more than naive at %v", hung.X[i])
		}
	}
}

// TestClusterSmoke: the real-engine path produces throughput on 1-3
// backends.
func TestClusterSmoke(t *testing.T) {
	tab, err := ClusterSmoke(Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := tab.Get("table-based")
	for i, v := range s.Y {
		if v <= 0 {
			t.Fatalf("no throughput at n=%v", s.X[i])
		}
	}
}

// TestTableRendering covers the text renderer edge cases.
func TestTableRendering(t *testing.T) {
	empty := &Table{ID: "X", Title: "empty"}
	if !strings.Contains(empty.String(), "empty") {
		t.Fatal("empty table rendering")
	}
	tab := &Table{
		ID: "X", Title: "sparse", XLabel: "x", YLabel: "y", Notes: "note",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{2}, Y: []float64{5}},
		},
	}
	out := tab.String()
	if !strings.Contains(out, "note") || !strings.Contains(out, "-") {
		t.Fatalf("sparse rendering wrong:\n%s", out)
	}
	if tab.Get("missing") != nil {
		t.Fatal("Get on missing series")
	}
}

// TestRunAllQuick executes the complete suite once in quick mode.
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	tables, err := RunAll(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(AllExperiments()) {
		t.Fatalf("tables = %d, want %d", len(tables), len(AllExperiments()))
	}
	for _, tab := range tables {
		if tab.String() == "" {
			t.Fatalf("%s renders empty", tab.ID)
		}
	}
}

// TestDriftDetection: the mismatched (night-only) allocation must
// trigger reallocation during the day; the whole-day allocation stays
// quieter.
func TestDriftDetection(t *testing.T) {
	tab, err := DriftDetection(Quick())
	if err != nil {
		t.Fatal(err)
	}
	day := tab.Get("whole-day allocation")
	night := tab.Get("night-only allocation")
	if last(night) <= last(day) {
		t.Fatalf("mismatched allocation triggered %v times, matched %v — detector blind", last(night), last(day))
	}
	if last(night) < 1 {
		t.Fatal("mismatched allocation never triggered")
	}
}

// TestMixedThroughput: read throughput on the real cluster must not
// collapse as concurrent clients grow — snapshot reads execute without
// the engine lock and updates batch into group-committed rounds, so
// the read-heavy mix at 8 clients must at least hold the 1-client
// rate (the ≥2x scaling headline needs multi-core hosts; this floor
// is what a 1-core CI runner can assert deterministically).
//
// One figure point lasts only tens of milliseconds, so a single pair of
// points swings with host scheduling. The floor is therefore checked on
// the median 8-client/1-client ratio over repeated back-to-back pairs of
// longer runs on one cluster, which a host hiccup in one run cannot
// move.
func TestMixedThroughput(t *testing.T) {
	tab, err := MixedThroughput(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"10% updates", "50% updates"} {
		s := tab.Get(name)
		if s == nil || len(s.Y) != 4 {
			t.Fatalf("series %q missing or wrong length", name)
		}
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("%s point %d is %v, want > 0", name, i, y)
			}
		}
	}
	opts := Quick()
	c, mix, err := mixedCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pairs = 7
	ratios := make([]float64, pairs)
	for i := range ratios {
		var rate [2]float64
		for k, workers := range []int{1, 8} {
			if rate[k], err = mixedRate(c, mix, workers, 0.10, 4*opts.Requests, opts.Seed); err != nil {
				t.Fatal(err)
			}
		}
		ratios[i] = rate[1] / rate[0]
	}
	if med := stats.Percentile(ratios, 0.5); med < 0.9 {
		t.Fatalf("read throughput fell with clients: median 8-client/1-client ratio %.2f over %v", med, ratios)
	}
}

// TestAblationHeterogeneity: the heterogeneity-aware allocation must
// not lose to treating the unequal cluster as uniform.
func TestAblationHeterogeneity(t *testing.T) {
	tab, err := AblationHeterogeneity(Quick())
	if err != nil {
		t.Fatal(err)
	}
	aware, naive := tab.Get("aware (Eq. 7 loads)"), tab.Get("naive (uniform loads)")
	if last(aware) < last(naive)*0.97 {
		t.Fatalf("aware %.0f clearly below naive %.0f", last(aware), last(naive))
	}
}

// TestJoinOrderRobustness: with cost-based join ordering, the
// pessimally-written star join (dimension table last in the SQL) must
// run within 2x of the optimally-written form at every size — before
// the planner it trailed by ~5x because joins executed in textual
// order.
func TestJoinOrderRobustness(t *testing.T) {
	tab, err := JoinOrderRobustness(Quick())
	if err != nil {
		t.Fatal(err)
	}
	pess, opt := tab.Get("pessimal order"), tab.Get("optimal order")
	if pess == nil || opt == nil || len(pess.Y) != len(opt.Y) {
		t.Fatalf("missing series: %+v", tab.Series)
	}
	for i := range pess.Y {
		if pess.Y[i] <= 0 || opt.Y[i] <= 0 {
			t.Fatalf("non-positive qps at point %d: pessimal %.1f, optimal %.1f", i, pess.Y[i], opt.Y[i])
		}
		if pess.Y[i] < opt.Y[i]/2 {
			t.Fatalf("pessimal order %.1f qps vs optimal %.1f at point %d: planner failed to reorder", pess.Y[i], opt.Y[i], i)
		}
	}
}

// TestJoinOrderRobustnessInjectedClock: E24 reads time only through
// Options.Now, so a fake clock that advances 1 ms per read makes the
// figure exact: every point repeats its query until 250 reads have
// passed, i.e. 1000 queries/sec.
func TestJoinOrderRobustnessInjectedClock(t *testing.T) {
	opts := Quick()
	var ticks time.Duration
	opts.Now = func() time.Time {
		ticks += time.Millisecond
		return time.Unix(0, 0).Add(ticks)
	}
	tab, err := JoinOrderRobustness(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tab.Series {
		for i, y := range s.Y {
			if y != 1000 {
				t.Fatalf("%s point %d = %v queries/sec, want exactly 1000", s.Name, i, y)
			}
		}
	}
}
