package experiments

import (
	"fmt"
	"time"

	"qcpa/internal/sqlmini"
)

// JoinOrderRobustness (E24) measures the real engine on a three-table
// star join written in two textual orders: "optimal" names the
// selective dimension table first, "pessimal" names it last. Textual
// order was the execution order before the planner, so the pessimal
// form materialized the full big⋈big product before the dimension
// filter pruned anything. With cost-based join ordering both forms
// compile to the same dimension-first plan, so the two curves must
// coincide — that collapse is the figure's point. Queries/sec are timed
// against opts.Now, the injectable clock that keeps this package free of
// direct wall-clock reads (detsource). The figure does not nest
// testing.Benchmark, so it also runs inside a benchmark.
func JoinOrderRobustness(opts Options) (*Table, error) {
	opts = opts.WithDefaults()
	t := &Table{
		ID: "E24", Title: "join-order robustness (real engine, 3-table star join)",
		XLabel: "fact-table rows", YLabel: "queries/sec (real execution)",
		Notes: "pessimal SQL names the selective dimension last; cost-based join ordering makes both forms run dimension-first, so the curves coincide; absolute numbers depend on host cores",
	}
	sizes := []int{opts.Requests / 4, opts.Requests}
	queries := []struct {
		name string
		sql  string
	}{
		{"pessimal order", `SELECT b1.v FROM jbig1 b1 JOIN jbig2 b2 ON b2.b1_id = b1.id JOIN jdim d ON d.id = b1.dim_id WHERE d.tag = 't0'`},
		{"optimal order", `SELECT b1.v FROM jdim d JOIN jbig1 b1 ON b1.dim_id = d.id JOIN jbig2 b2 ON b2.b1_id = b1.id WHERE d.tag = 't0'`},
	}
	for _, q := range queries {
		s := Series{Name: q.name}
		for _, n := range sizes {
			qps, err := joinQPS(n, q.sql, opts.Now)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, qps)
		}
		t.Series = append(t.Series, s)
	}
	return t, nil
}

// joinQPSBudget is how long joinQPS repeats one query.
const joinQPSBudget = 250 * time.Millisecond

// joinQPS loads the star schema at the given fact-table size and times
// repeated execution of sql on one engine for joinQPSBudget, read from
// now after every execution.
func joinQPS(n int, sql string, now func() time.Time) (float64, error) {
	e, err := starJoinEngine(n, 50)
	if err != nil {
		return 0, err
	}
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return 0, err
	}
	start := now()
	for runs := 1; ; runs++ {
		res, err := e.ExecStmt(st)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) == 0 {
			return 0, fmt.Errorf("experiments: star join returned no rows")
		}
		if elapsed := now().Sub(start); elapsed >= joinQPSBudget {
			return float64(runs) / elapsed.Seconds(), nil
		}
	}
}

// starJoinEngine builds two fact tables of n rows joined by an equi
// edge and a dim-row dimension table whose tag column keeps 2/dim of
// the rows.
func starJoinEngine(n, dim int) (*sqlmini.Engine, error) {
	e := sqlmini.New()
	for _, ddl := range []string{
		`CREATE TABLE jbig1 (id INT PRIMARY KEY, dim_id INT, v INT)`,
		`CREATE TABLE jbig2 (id INT PRIMARY KEY, b1_id INT, v INT)`,
		`CREATE TABLE jdim (id INT PRIMARY KEY, tag TEXT)`,
	} {
		if _, err := e.Exec(ddl); err != nil {
			return nil, err
		}
	}
	rows1 := make([]sqlmini.Row, 0, n)
	rows2 := make([]sqlmini.Row, 0, n)
	for i := 0; i < n; i++ {
		rows1 = append(rows1, sqlmini.Row{sqlmini.Int(int64(i)), sqlmini.Int(int64(i % dim)), sqlmini.Int(int64(i * 7))})
		rows2 = append(rows2, sqlmini.Row{sqlmini.Int(int64(i)), sqlmini.Int(int64(i)), sqlmini.Int(int64(i * 3))})
	}
	dims := make([]sqlmini.Row, 0, dim)
	for i := 0; i < dim; i++ {
		dims = append(dims, sqlmini.Row{sqlmini.Int(int64(i)), sqlmini.Text(fmt.Sprintf("t%d", i%(dim/2)))})
	}
	if err := e.BulkInsert("jbig1", rows1); err != nil {
		return nil, err
	}
	if err := e.BulkInsert("jbig2", rows2); err != nil {
		return nil, err
	}
	if err := e.BulkInsert("jdim", dims); err != nil {
		return nil, err
	}
	return e, nil
}
