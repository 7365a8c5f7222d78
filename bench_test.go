// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (run `go test -bench=.` or, for the full paper
// scale, `cmd/qcpa-bench`), plus microbenchmarks of the core
// algorithms. Each figure benchmark regenerates the complete series at
// the quick scale per iteration and reports the headline metric via
// b.ReportMetric, so the series shapes are visible straight from the
// bench output.
package qcpa

import (
	"fmt"
	"math/rand"
	"testing"

	"qcpa/internal/bench"
	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/experiments"
	"qcpa/internal/matching"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload/tpcapp"
	"qcpa/internal/workload/tpch"
)

// benchFigure runs the registered experiment once per iteration and
// reports its headline metric averaged over all b.N iterations, so a
// single noisy table cannot skew the recorded series metric.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	e := experiments.ByID(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := experiments.Quick()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		sum += e.Value(tab)
	}
	b.ReportMetric(sum/float64(b.N), e.Metric)
}

func BenchmarkFig4aTPCHThroughput(b *testing.B) { benchFigure(b, "E01") }

func BenchmarkFig4bTPCHDeviation(b *testing.B) { benchFigure(b, "E02") }

func BenchmarkFig4cReplicationDegree(b *testing.B) { benchFigure(b, "E03") }

func BenchmarkFig4dAllocationTime(b *testing.B) { benchFigure(b, "E04") }

func BenchmarkFig4eTPCHScaling(b *testing.B) { benchFigure(b, "E05") }

func BenchmarkFig4fTPCAppSpeedup(b *testing.B) { benchFigure(b, "E06") }

func BenchmarkFig4gTPCAppThroughput(b *testing.B) { benchFigure(b, "E07") }

func BenchmarkFig4hTPCAppDeviation(b *testing.B) { benchFigure(b, "E08") }

func BenchmarkFig4iTPCAppLargeScale(b *testing.B) { benchFigure(b, "E09") }

func BenchmarkFig4jLoadBalance(b *testing.B) { benchFigure(b, "E10") }

func BenchmarkFig4kReplicationHistogramTable(b *testing.B) { benchFigure(b, "E11") }

func BenchmarkFig4lReplicationHistogramColumn(b *testing.B) { benchFigure(b, "E12") }

func BenchmarkFig5aAutoscaleNodes(b *testing.B) { benchFigure(b, "E13") }

func BenchmarkFig5bAutoscaleLatency(b *testing.B) { benchFigure(b, "E14") }

func BenchmarkFig6ClassDistribution(b *testing.B) { benchFigure(b, "E15") }

func BenchmarkSpeedupModel(b *testing.B) { benchFigure(b, "E18") }

func BenchmarkRobustness(b *testing.B) { benchFigure(b, "E19") }

func BenchmarkKSafety(b *testing.B) { benchFigure(b, "E20") }

func BenchmarkAblationSolvers(b *testing.B) { benchFigure(b, "A1") }

func BenchmarkAblationGranularity(b *testing.B) { benchFigure(b, "A2") }

func BenchmarkAblationScheduler(b *testing.B) { benchFigure(b, "A3") }

func BenchmarkAblationMatching(b *testing.B) { benchFigure(b, "A4") }

func BenchmarkClusterSmoke(b *testing.B) { benchFigure(b, "E21") }

// BenchmarkSection3Example and BenchmarkAppendixAExample time the
// greedy allocator on the paper's worked examples (E16/E17).
func BenchmarkSection3Example(b *testing.B) {
	cls := NewClassification()
	for _, f := range []string{"A", "B", "C"} {
		cls.AddFragment(Fragment{ID: FragmentID(f), Size: 1})
	}
	cls.MustAddClass(NewClass("C1", Read, 0.30, "A"))
	cls.MustAddClass(NewClass("C2", Read, 0.25, "B"))
	cls.MustAddClass(NewClass("C3", Read, 0.25, "C"))
	cls.MustAddClass(NewClass("C4", Read, 0.20, "A", "B"))
	bs := UniformBackends(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Allocate(cls, bs, AllocateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendixAExample(b *testing.B) {
	cls := NewClassification()
	for _, f := range []string{"A", "B", "C"} {
		cls.AddFragment(Fragment{ID: FragmentID(f), Size: 1})
	}
	cls.MustAddClass(NewClass("Q1", Read, 0.24, "A"))
	cls.MustAddClass(NewClass("Q2", Read, 0.20, "B"))
	cls.MustAddClass(NewClass("Q3", Read, 0.20, "C"))
	cls.MustAddClass(NewClass("Q4", Read, 0.16, "A", "B"))
	cls.MustAddClass(NewClass("U1", Update, 0.04, "A"))
	cls.MustAddClass(NewClass("U2", Update, 0.10, "B"))
	cls.MustAddClass(NewClass("U3", Update, 0.06, "C"))
	backends := NormalizeBackends([]Backend{
		{Name: "B1", Load: 0.30}, {Name: "B2", Load: 0.30},
		{Name: "B3", Load: 0.20}, {Name: "B4", Load: 0.20},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Allocate(cls, backends, AllocateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- component microbenchmarks ----

func tpchClassification(b *testing.B, strategy classify.Strategy) *core.Classification {
	b.Helper()
	mix, err := tpch.Mix()
	if err != nil {
		b.Fatal(err)
	}
	res, err := classify.Classify(mix.Journal(10000), tpch.Schema(),
		classify.Options{Strategy: strategy, RowCounts: tpch.RowCounts(1)})
	if err != nil {
		b.Fatal(err)
	}
	return res.Classification
}

func BenchmarkGreedyTPCHColumn10(b *testing.B) {
	cls := tpchClassification(b, classify.ColumnBased)
	bs := UniformBackends(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Greedy(cls, bs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalTPCHTable3(b *testing.B) {
	cls := tpchClassification(b, classify.TableBased)
	bs := UniformBackends(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimal(cls, bs, core.OptimalOptions{MaxNodes: 150}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemeticTPCAppTable5(b *testing.B) {
	mix, err := tpcapp.Mix(300)
	if err != nil {
		b.Fatal(err)
	}
	res, err := classify.Classify(mix.Journal(200000), tpcapp.Schema(),
		classify.Options{Strategy: classify.TableBased, RowCounts: tpcapp.RowCounts(300)})
	if err != nil {
		b.Fatal(err)
	}
	bs := UniformBackends(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Memetic(res.Classification, bs, core.MemeticOptions{Iterations: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHungarian50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 50
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 100
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := matching.Hungarian(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassifyTPCHColumn(b *testing.B) {
	mix, err := tpch.Mix()
	if err != nil {
		b.Fatal(err)
	}
	journal := mix.Journal(10000)
	schema := tpch.Schema()
	rows := tpch.RowCounts(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.Classify(journal, schema,
			classify.Options{Strategy: classify.ColumnBased, RowCounts: rows}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSqlminiPointQuery(b *testing.B) {
	e := sqlmini.New()
	if err := tpcapp.Load(e, nil, map[string]int64{"customer": 1000, "orders": 3000}, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf(`SELECT c_balance FROM customer WHERE c_id = %d`, i%1000)
		if _, err := e.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSqlminiUpdateRound times one-statement ApplyRound UPDATE
// and INSERT rounds on a 10k-row indexed table (the write layer).
func BenchmarkSqlminiUpdateRound(b *testing.B) { bench.SqlminiUpdateRound(b) }

func BenchmarkSqlminiJoinAggregate(b *testing.B) {
	e := sqlmini.New()
	if err := tpch.Load(e, []string{"customer", "orders"}, map[string]int64{"customer": 500, "orders": 1500}, 1); err != nil {
		b.Fatal(err)
	}
	const q = `SELECT c_custkey, COUNT(*) AS c_count FROM customer JOIN orders ON o_custkey = c_custkey GROUP BY c_custkey ORDER BY c_count DESC LIMIT 10`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDriftDetection(b *testing.B) { benchFigure(b, "E22") }

func BenchmarkMixedThroughput(b *testing.B) { benchFigure(b, "E23") }

func BenchmarkAblationHorizontal(b *testing.B) { benchFigure(b, "A5") }

func BenchmarkAblationHeterogeneity(b *testing.B) { benchFigure(b, "A6") }

func BenchmarkJoinOrderRobustness(b *testing.B) { benchFigure(b, "E24") }
