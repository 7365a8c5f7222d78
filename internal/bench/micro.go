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
	{"SqlminiUpdateRound", SqlminiUpdateRound},
	{"SqlminiTopK", SqlminiTopK},
}

// RunMicro times every component microbenchmark and returns the
// results in declaration order, reporting progress to w.
func RunMicro(w io.Writer) []MicroResult {
	var out []MicroResult
	for _, m := range micro {
		r := testing.Benchmark(m.fn)
		mr := MicroResult{Name: m.name, NsPerOp: float64(r.NsPerOp()), BytesPerOp: r.AllocedBytesPerOp(), Iterations: r.N}
		if w != nil {
			fmt.Fprintf(w, "%-22s %12.0f ns/op %10d B/op  (%d iterations)\n", mr.Name, mr.NsPerOp, mr.BytesPerOp, mr.Iterations)
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

// SqlminiUpdateRound times the engine's write layer: one-statement
// ApplyRound rounds on the 10k-row TPC-App item table, which carries a
// secondary index on i_subject, alternating an UPDATE of a non-key
// column with an INSERT of a fresh row. Statements are parsed before
// the timer starts; each round publishes one epoch, so every op pays
// its table's copy-on-write cost.
func SqlminiUpdateRound(b *testing.B) {
	const items = 10000
	e := sqlmini.New()
	if err := tpcapp.Load(e, []string{"item"}, map[string]int64{"item": items}, 1); err != nil {
		b.Fatal(err)
	}
	updates := make([]sqlmini.Statement, 0, 256)
	for i := 0; i < cap(updates); i++ {
		st, err := sqlmini.Parse(fmt.Sprintf(`UPDATE item SET i_stock = i_stock - 1 WHERE i_id = %d`, (i*7919)%items))
		if err != nil {
			b.Fatal(err)
		}
		updates = append(updates, st)
	}
	st, err := sqlmini.Parse(`INSERT INTO item VALUES (0, 'Title', 1, 1000, 'Publisher', 'HISTORY', 'desc', 20.0, 10.0, 100)`)
	if err != nil {
		b.Fatal(err)
	}
	insert := st.(*sqlmini.InsertStmt)
	round := make([]sqlmini.Statement, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			round[0] = updates[(i/2)%len(updates)]
		} else {
			row := append([]sqlmini.Expr(nil), insert.Rows[0]...)
			row[0] = &sqlmini.Lit{V: sqlmini.Int(int64(items + i))}
			round[0] = &sqlmini.InsertStmt{Table: insert.Table, Rows: [][]sqlmini.Expr{row}}
		}
		if res := e.ApplyRound(round); res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
}

// SqlminiTopK times the top-k sink on TPC-App's newProducts read at
// RowCounts(1): about 5,500 item rows pass the date filter and join
// their author (10k items, 2.5k authors), and ORDER BY … LIMIT 50 keeps
// the 50 newest.
func SqlminiTopK(b *testing.B) {
	e := sqlmini.New()
	if err := tpcapp.Load(e, []string{"item", "author"}, tpcapp.RowCounts(1), 1); err != nil {
		b.Fatal(err)
	}
	st, err := sqlmini.Parse(`SELECT i_id, i_title, a_fname, a_lname FROM item JOIN author ON a_id = i_a_id WHERE i_pub_date > 900 ORDER BY i_pub_date DESC LIMIT 50`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.ExecStmt(st)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 50 {
			b.Fatalf("newProducts returned %d rows, want 50", len(res.Rows))
		}
	}
}
