package bench

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/matching"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload/tpcapp"
	"qcpa/internal/workload/tpch"
)

// micro mirrors the component microbenchmarks of bench_test.go so the
// qcpa-bench binary can record ns/op without `go test`: same setups,
// same inner loops, timed via testing.Benchmark.
var micro = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"MemeticTPCAppTable5", microMemetic},
	{"GreedyTPCHColumn10", microGreedy},
	{"OptimalTPCHTable3", microOptimal},
	{"Hungarian50", microHungarian},
	{"ClassifyTPCHColumn", microClassify},
	{"SqlminiPointQuery", microPointQuery},
	{"SqlminiJoinOrder", microJoinOrder},
	{"PlanCacheHit", microPlanCacheHit},
}

// RunMicro times every component microbenchmark and returns the
// results in declaration order, reporting progress to w.
func RunMicro(w io.Writer) []MicroResult {
	var out []MicroResult
	for _, m := range micro {
		r := testing.Benchmark(m.fn)
		mr := MicroResult{Name: m.name, NsPerOp: float64(r.NsPerOp()), Iterations: r.N}
		if w != nil {
			fmt.Fprintf(w, "%-22s %12.0f ns/op  (%d iterations)\n", mr.Name, mr.NsPerOp, mr.Iterations)
		}
		out = append(out, mr)
	}
	return out
}

func microMemetic(b *testing.B) {
	mix, err := tpcapp.Mix(300)
	if err != nil {
		b.Fatal(err)
	}
	res, err := classify.Classify(mix.Journal(200000), tpcapp.Schema(),
		classify.Options{Strategy: classify.TableBased, RowCounts: tpcapp.RowCounts(300)})
	if err != nil {
		b.Fatal(err)
	}
	bs := core.UniformBackends(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Memetic(res.Classification, bs, core.MemeticOptions{Iterations: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func microGreedy(b *testing.B) {
	mix, err := tpch.Mix()
	if err != nil {
		b.Fatal(err)
	}
	res, err := classify.Classify(mix.Journal(10000), tpch.Schema(),
		classify.Options{Strategy: classify.ColumnBased, RowCounts: tpch.RowCounts(1)})
	if err != nil {
		b.Fatal(err)
	}
	bs := core.UniformBackends(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Greedy(res.Classification, bs); err != nil {
			b.Fatal(err)
		}
	}
}

func microOptimal(b *testing.B) {
	mix, err := tpch.Mix()
	if err != nil {
		b.Fatal(err)
	}
	res, err := classify.Classify(mix.Journal(10000), tpch.Schema(),
		classify.Options{Strategy: classify.TableBased, RowCounts: tpch.RowCounts(1)})
	if err != nil {
		b.Fatal(err)
	}
	bs := core.UniformBackends(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimal(res.Classification, bs, core.OptimalOptions{MaxNodes: 150}); err != nil {
			b.Fatal(err)
		}
	}
}

func microHungarian(b *testing.B) {
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

func microClassify(b *testing.B) {
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

func microPointQuery(b *testing.B) {
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
