// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4 and Section 5). Each Fig* function produces a
// Table whose series correspond to the lines of the original plot; the
// cmd/qcpa-bench binary prints them and bench_test.go wraps each one in
// a testing.B benchmark.
//
// Absolute numbers differ from the paper (the substrate is a simulator
// and an embedded engine, not a 16-node PostgreSQL cluster), but the
// shapes are reproduced: who wins, by what factor, and where curves
// flatten. EXPERIMENTS.md records paper-vs-measured for every figure.
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/par"
	"qcpa/internal/sim"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
	"qcpa/internal/workload/tpch"
)

// Options scale the experiment suite.
type Options struct {
	// MaxBackends is the largest cluster size swept (default 10, the
	// paper's figures).
	MaxBackends int
	// Runs is the number of seeded repetitions for deviation and
	// histogram figures (default 10, as in the paper).
	Runs int
	// Requests is the number of simulated requests per measurement
	// point (default 4000).
	Requests int
	// OptimalMaxBackends bounds the MILP sweep of Figure 4(c) (the
	// paper manages 7; default 4 keeps the default run fast).
	OptimalMaxBackends int
	// OptimalNodeBudget caps branch-and-bound nodes per solve.
	OptimalNodeBudget int
	// Seed is the base RNG seed (default 1).
	Seed int64
	// Parallelism bounds the worker pool that evaluates a figure's
	// independent series points (default GOMAXPROCS). Every point is a
	// pure function of (Options, index), so the resulting tables are
	// bit-identical for every value; 1 is the sequential reference
	// path that Quick() pins for deterministic CI runs.
	Parallelism int
	// Now is the clock that the real-engine timing of E24 reads
	// (default time.Now). Injecting a fake clock makes that figure
	// reproducible; every other figure ignores it.
	Now func() time.Time `json:"-"`
}

// WithDefaults fills in zero fields.
func (o Options) WithDefaults() Options {
	if o.MaxBackends == 0 {
		o.MaxBackends = 10
	}
	if o.Runs == 0 {
		o.Runs = 10
	}
	if o.Requests == 0 {
		o.Requests = 4000
	}
	if o.OptimalMaxBackends == 0 {
		o.OptimalMaxBackends = 4
	}
	if o.OptimalNodeBudget == 0 {
		o.OptimalNodeBudget = 20000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Quick returns options sized for unit tests and smoke benches.
// Parallelism is pinned to 1 so CI exercises the sequential reference
// path.
func Quick() Options {
	return Options{MaxBackends: 6, Runs: 3, Requests: 1200, OptimalMaxBackends: 3, OptimalNodeBudget: 4000, Seed: 1, Parallelism: 1}
}

// collect evaluates the n independent points of one figure series on a
// bounded worker pool of opts.Parallelism workers and returns the
// values in point order. Points must be pure functions of (opts, i)
// and must not share mutable state; under that contract any worker
// count produces the same table. On failure the error of the
// lowest-indexed failing point is returned.
func collect[T any](opts Options, n int, point func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	par.For(opts.Parallelism, n, func(i int) {
		out[i], errs[i] = point(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// relativeToFirst rescales a series so its first point becomes 1 (the
// "relative throughput vs 1 backend" normalization of Figures 4(e),
// 4(f) and 4(i)). Points are measured in absolute terms first — that
// keeps them independent, so they can run concurrently — and the
// normalization happens after all of them are in.
func relativeToFirst(ys []float64) []float64 {
	out := make([]float64, len(ys))
	for i, y := range ys {
		out[i] = y / ys[0]
	}
	return out
}

// floats converts a backend-count list into series X values.
func floats(ns []int) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = float64(n)
	}
	return out
}

// Series is one line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Table is a regenerated figure or table.
type Table struct {
	ID     string // experiment id from DESIGN.md (e.g. "E01")
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  string
}

// String renders the table as aligned text, one row per shared X value.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s  %s ==\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(&sb, "   %s\n", t.Notes)
	}
	if len(t.Series) == 0 {
		return sb.String()
	}
	// Header.
	fmt.Fprintf(&sb, "%16s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&sb, " | %14s", s.Name)
	}
	sb.WriteByte('\n')
	// Rows follow the first series' X; other series may be sparse.
	base := t.Series[0]
	for i, x := range base.X {
		fmt.Fprintf(&sb, "%16.6g", x)
		for _, s := range t.Series {
			v, ok := valueAt(s, x, i)
			if ok {
				fmt.Fprintf(&sb, " | %14.4g", v)
			} else {
				fmt.Fprintf(&sb, " | %14s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "   y: %s\n", t.YLabel)
	return sb.String()
}

func valueAt(s Series, x float64, hint int) (float64, bool) {
	if hint < len(s.X) && s.X[hint] == x {
		return s.Y[hint], true
	}
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Get returns a series by name (nil if absent).
func (t *Table) Get(name string) *Series {
	for i := range t.Series {
		if t.Series[i].Name == name {
			return &t.Series[i]
		}
	}
	return nil
}

// ---- shared workload setups ----

// tpchCostScale converts the calibrated TPC-H query costs into simulated
// seconds so a single backend lands near the paper's ~1.2 queries/sec.
const tpchCostScale = 0.08

// tpcappCostScale lands a single backend near the paper's ~1300
// requests/sec.
const tpcappCostScale = 1.0 / 1300

// setup bundles a classified workload ready for simulation.
type setup struct {
	cls     *core.Classification
	mix     *workload.Mix
	scale   float64 // cost scale
	rows    map[string]int64
	journal []classify.Entry
}

// next returns a simulator request sampler.
func (s *setup) next() func(rng *rand.Rand) sim.Request {
	return func(rng *rand.Rand) sim.Request {
		r := s.mix.Next(rng)
		return sim.Request{Class: r.Class, Write: r.Write, Cost: r.Cost * s.scale}
	}
}

// tpchSetup classifies the TPC-H workload at the given granularity.
func tpchSetup(strategy classify.Strategy, sf float64) (*setup, error) {
	mix, err := tpch.Mix()
	if err != nil {
		return nil, err
	}
	journal := mix.Journal(10000)
	rows := tpch.RowCounts(sf)
	res, err := classify.Classify(journal, tpch.Schema(), classify.Options{Strategy: strategy, RowCounts: rows})
	if err != nil {
		return nil, err
	}
	mix.Bind(res)
	return &setup{cls: res.Classification, mix: mix, scale: tpchCostScale * sf, rows: rows, journal: journal}, nil
}

// tpcappSetup classifies the TPC-App workload; large selects the
// Figure 4(i) variant.
func tpcappSetup(strategy classify.Strategy, large bool) (*setup, error) {
	var mix *workload.Mix
	var err error
	eb := 300
	scale := tpcappCostScale
	if large {
		mix, err = tpcapp.LargeMix()
		eb = 12000
		scale = tpcappCostScale * 4 // larger data: costlier requests
	} else {
		mix, err = tpcapp.Mix(eb)
	}
	if err != nil {
		return nil, err
	}
	journal := mix.Journal(200000)
	rows := tpcapp.RowCounts(eb)
	res, err := classify.Classify(journal, tpcapp.Schema(), classify.Options{Strategy: strategy, RowCounts: rows})
	if err != nil {
		return nil, err
	}
	mix.Bind(res)
	return &setup{cls: res.Classification, mix: mix, scale: scale, rows: rows, journal: journal}, nil
}

// tpchCache is the calibrated buffer-pool model for the OLAP workload
// (Section 4.1 attributes the super-linear speedup to caching).
var tpchCache = struct{ Alpha, Beta float64 }{0.40, 0.70}

// allocFor computes an allocation per strategy name: "full", "table",
// "column", "random" (the Figure 4(a) contenders).
func allocFor(kind string, n int, seed int64) (*core.Allocation, *setup, error) {
	switch kind {
	case "full":
		st, err := tpchSetup(classify.TableBased, 1)
		if err != nil {
			return nil, nil, err
		}
		return core.FullReplication(st.cls, core.UniformBackends(n)), st, nil
	case "table":
		st, err := tpchSetup(classify.TableBased, 1)
		if err != nil {
			return nil, nil, err
		}
		a, err := core.Greedy(st.cls, core.UniformBackends(n))
		return a, st, err
	case "column":
		st, err := tpchSetup(classify.ColumnBased, 1)
		if err != nil {
			return nil, nil, err
		}
		a, err := core.Greedy(st.cls, core.UniformBackends(n))
		return a, st, err
	case "random":
		st, err := tpchSetup(classify.ColumnBased, 1)
		if err != nil {
			return nil, nil, err
		}
		a, err := randomAllocation(st.cls, n, seed)
		return a, st, err
	}
	return nil, nil, fmt.Errorf("experiments: unknown allocation kind %q", kind)
}

// randomAllocation assigns every query class to one uniformly random
// backend (the Figure 4(a) baseline): balanced in expectation, poorly
// balanced in fact.
func randomAllocation(cls *core.Classification, n int, seed int64) (*core.Allocation, error) {
	rng := rand.New(rand.NewSource(seed))
	a := core.NewAllocation(cls, core.UniformBackends(n))
	for _, c := range cls.Reads() {
		b := rng.Intn(n)
		installReadClass(a, b, c)
		a.SetAssign(b, c.Name, c.Weight)
	}
	// Update classes with no read overlap still need a home.
	for _, u := range cls.Updates() {
		placed := false
		for b := 0; b < n; b++ {
			if a.Assign(b, u.Name) > 0 {
				placed = true
				break
			}
		}
		if !placed {
			b := rng.Intn(n)
			a.AddFragments(b, u.Fragments()...)
			a.SetAssign(b, u.Name, u.Weight)
			installUpdates(a, b)
		}
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// installReadClass places a read class and its update closure on b.
func installReadClass(a *core.Allocation, b int, c *core.Class) {
	a.AddFragments(b, c.Fragments()...)
	installUpdates(a, b)
}

// installUpdates installs every update class overlapping b's data, to a
// fixpoint (Eq. 10).
func installUpdates(a *core.Allocation, b int) {
	cls := a.Classification()
	for changed := true; changed; {
		changed = false
		for _, u := range cls.Updates() {
			if a.Assign(b, u.Name) > 0 {
				continue
			}
			touches := false
			for _, f := range u.Fragments() {
				if a.HasFragment(b, f) {
					touches = true
					break
				}
			}
			if touches {
				a.AddFragments(b, u.Fragments()...)
				a.SetAssign(b, u.Name, u.Weight)
				changed = true
			}
		}
	}
}

// measure runs a closed-loop simulation and returns throughput in
// requests per simulated second.
func measure(a *core.Allocation, st *setup, opts Options, seed int64, cache bool) (*sim.Result, error) {
	simOpts := sim.Options{Alloc: a, Seed: seed}
	if cache {
		simOpts.CacheAlpha = tpchCache.Alpha
		simOpts.CacheBeta = tpchCache.Beta
	}
	return sim.RunClosedLoop(simOpts, st.next(), opts.Requests)
}

// backendRange returns 1..max.
func backendRange(max int) []float64 {
	out := make([]float64, max)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}
