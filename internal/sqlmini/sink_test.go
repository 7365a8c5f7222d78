package sqlmini

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// sinkTestDB loads three tables t1..t3 (id INT PRIMARY KEY, k INT,
// f FLOAT, s TEXT) with seeded random rows: few distinct keys, about
// one NULL in six per column, and floats mixing integral values (which
// equal an INT k) with halves. t1 carries a secondary index on k.
func sinkTestDB(t *testing.T, rng *rand.Rand) *Engine {
	t.Helper()
	e := New()
	words := []string{"ash", "birch", "cedar", "elm", "fir"}
	for ti := 1; ti <= 3; ti++ {
		name := fmt.Sprintf("t%d", ti)
		mustExec(t, e, fmt.Sprintf(`CREATE TABLE %s (id INT PRIMARY KEY, k INT, f FLOAT, s TEXT)`, name))
		n := 1 + rng.Intn(40)
		rows := make([]Row, n)
		for i := range rows {
			r := Row{Int(int64(i)), Null, Null, Null}
			if rng.Intn(6) > 0 {
				r[1] = Int(int64(rng.Intn(6)))
			}
			if rng.Intn(6) > 0 {
				r[2] = Float(float64(rng.Intn(12)) / 2)
			}
			if rng.Intn(6) > 0 {
				r[3] = Text(words[rng.Intn(len(words))])
			}
			rows[i] = r
		}
		if err := e.BulkInsert(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CreateIndex("t1", "k"); err != nil {
		t.Fatal(err)
	}
	return e
}

// sinkTestQuery draws one SELECT without LIMIT over t1..t3: a scan, pk
// or index probe, or a 2–3-table join (hash on int/int, float/int,
// text, or two columns, or a nested loop), ORDER BY over zero to two
// keys in either direction. It returns the query and, for pure
// equi-joins, the same query with every join equality wrapped in
// "(… OR 0 = 1)", which runs as a nested loop with residual "="
// conjuncts.
func sinkTestQuery(rng *rand.Rand) (sql, nestedSQL string, ordered bool) {
	n := 1 + rng.Intn(3)
	var items, keys []string
	for ti := 1; ti <= n; ti++ {
		items = append(items, fmt.Sprintf("t%d.id AS id%d", ti, ti))
		for _, c := range []string{"k", "f", "s"} {
			keys = append(keys, fmt.Sprintf("t%d.%s", ti, c))
		}
	}
	if rng.Intn(2) == 0 {
		items = append(items, "t1.f AS f1")
		keys = append(keys, "f1") // an output column: sorts by the projected value
	}
	var from, nested strings.Builder
	from.WriteString("t1")
	nested.WriteString("t1")
	equiOnly := true
	for ti := 2; ti <= n; ti++ {
		other := 1 + rng.Intn(ti-1)
		var on, onNested string
		eq := func(a, b string) string {
			return fmt.Sprintf("t%d.%s = t%d.%s", ti, a, other, b)
		}
		switch rng.Intn(5) {
		case 0:
			on = eq("k", "k")
			onNested = "(" + on + " OR 0 = 1)"
		case 1:
			on = eq("f", "k")
			onNested = "(" + on + " OR 0 = 1)"
		case 2:
			on = eq("s", "s")
			onNested = "(" + on + " OR 0 = 1)"
		case 3:
			on = eq("k", "k") + " AND " + eq("s", "s")
			onNested = "(" + eq("k", "k") + " OR 0 = 1) AND (" + eq("s", "s") + " OR 0 = 1)"
		default:
			on = fmt.Sprintf("t%d.k < t%d.k", ti, other)
			equiOnly = false
		}
		fmt.Fprintf(&from, " JOIN t%d ON %s", ti, on)
		fmt.Fprintf(&nested, " JOIN t%d ON %s", ti, onNested)
	}
	where := ""
	switch rng.Intn(5) {
	case 0:
		where = fmt.Sprintf(" WHERE t1.id = %d", rng.Intn(8))
	case 1:
		where = fmt.Sprintf(" WHERE t1.k = %d", rng.Intn(6))
	case 2:
		where = fmt.Sprintf(" WHERE t1.f > %d", rng.Intn(4))
	}
	order := ""
	if nk := rng.Intn(3); nk > 0 {
		var obs []string
		for i := 0; i < nk; i++ {
			ob := keys[rng.Intn(len(keys))]
			if rng.Intn(2) == 0 {
				ob += " DESC"
			}
			obs = append(obs, ob)
		}
		order = " ORDER BY " + strings.Join(obs, ", ")
	}
	sel := "SELECT " + strings.Join(items, ", ") + " FROM "
	sql = sel + from.String() + where + order
	if n > 1 && equiOnly {
		nestedSQL = sel + nested.String() + where
	}
	return sql, nestedSQL, order != ""
}

func sameRows(a, b []Row) bool {
	return slices.EqualFunc(a, b, func(x, y Row) bool { return slices.Equal(x, y) })
}

func sortedRowStrings(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// planSink returns the sink the planner picks for sql.
func planSink(t *testing.T, e *Engine, sql string) sinkKind {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := e.planFor(st.(*SelectStmt), e.loadView())
	if err != nil {
		t.Fatal(err)
	}
	return p.sink
}

// TestSinkLimitMetamorphic: on seeded random tables and queries, "… LIMIT
// k" returns exactly the first k rows of the same query without LIMIT,
// for ORDER BY queries (top-k sink, checked against the stable sort of
// the collect sink) and unordered ones (limit sink, checked against the
// pipeline's arrival order), for k in {0, 1, random, n, n+1}. Each
// failure names its seed, so it replays.
func TestSinkLimitMetamorphic(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sinkTestDB(t, rng)
		for q := 0; q < 12; q++ {
			sql, nestedSQL, ordered := sinkTestQuery(rng)
			full := mustExec(t, e, sql)
			if planSink(t, e, sql) != sinkCollect {
				t.Fatalf("seed %d: %s: unlimited query not on the collect sink", seed, sql)
			}
			if nestedSQL != "" {
				nl := mustExec(t, e, nestedSQL)
				if !slices.Equal(sortedRowStrings(full.Rows), sortedRowStrings(nl.Rows)) {
					t.Fatalf("seed %d: hash join %s\n= %v\nnested loop %s\n= %v", seed, sql, full.Rows, nestedSQL, nl.Rows)
				}
			}
			n := len(full.Rows)
			want := sinkLimit
			if ordered {
				want = sinkTopK
			}
			for _, k := range []int{0, 1, rng.Intn(n + 2), n, n + 1} {
				lsql := fmt.Sprintf("%s LIMIT %d", sql, k)
				if got := planSink(t, e, lsql); got != want {
					t.Fatalf("seed %d: %s: sink %d, want %d", seed, lsql, got, want)
				}
				got := mustExec(t, e, lsql)
				head := full.Rows[:min(k, n)]
				if !sameRows(got.Rows, head) {
					t.Fatalf("seed %d: %s\n= %v\nwant the first %d rows of the unlimited query\n= %v", seed, lsql, got.Rows, k, head)
				}
			}
		}
	}
}

// TestSinkErrorParity: a sink must return the error the whole-result
// path returns, even where the failing row lies outside the rows the
// sink keeps. Expressions that can fail keep a plan on the collect
// sink; a sort-key error is held back until the last stage has run, so
// a later failure of that stage still wins.
func TestSinkErrorParity(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE p (id INT PRIMARY KEY, k INT, a TEXT, b TEXT)`)
	mustExec(t, e, `CREATE TABLE q (id INT PRIMARY KEY, v INT)`)
	// Row 1 sorts first and has NULL text; row 2 fails arithmetic on a
	// and negation on b.
	mustExec(t, e, `INSERT INTO p VALUES (1, 1, NULL, 'y'), (2, 2, 'x', 'y')`)
	mustExec(t, e, `INSERT INTO q VALUES (1, 10), (2, 20)`)
	cases := []struct {
		sql  string
		sink sinkKind
	}{
		// A projection fails on a row outside the top k / past the limit.
		{`SELECT a * 2 FROM p ORDER BY k LIMIT 1`, sinkCollect},
		{`SELECT a * 2 FROM p LIMIT 1`, sinkCollect},
		// A filter of the streamed scan fails past the limit.
		{`SELECT id FROM p WHERE (a + 1) IS NULL LIMIT 1`, sinkCollect},
		// A residual of the last join fails past the limit.
		{`SELECT p.id FROM p JOIN q ON q.id = p.id AND (p.a + q.v) IS NULL LIMIT 1`, sinkCollect},
		// Row 1's sort key fails first, then row 2's join residual: the
		// residual's error is the one the collect path reports.
		{`SELECT p.id FROM p JOIN q ON q.id = p.id AND (p.a + q.v) IS NULL ORDER BY -p.b LIMIT 1`, sinkTopK},
		// Only the sort key fails.
		{`SELECT id FROM p ORDER BY -b LIMIT 0`, sinkTopK},
	}
	for _, c := range cases {
		if got := planSink(t, e, c.sql); got != c.sink {
			t.Fatalf("%s: sink %d, want %d", c.sql, got, c.sink)
		}
		_, err := e.Exec(c.sql)
		unlimited := c.sql[:strings.LastIndex(c.sql, " LIMIT")]
		_, want := e.Exec(unlimited)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: err %v, want %v (as %s)", c.sql, err, want, unlimited)
		}
	}
	// Operands whose kinds cannot fail keep the streaming sinks.
	for sql, want := range map[string]sinkKind{
		`SELECT k * k, -k FROM p ORDER BY k LIMIT 1`:           sinkTopK,
		`SELECT id FROM p WHERE k + id > 2 LIMIT 1`:            sinkLimit,
		`SELECT id FROM p WHERE a LIKE 'x%' LIMIT 1`:           sinkLimit,
		`SELECT k * 3 FROM p LIMIT 1`:                          sinkCollect, // literals become parameters
		`SELECT COUNT(*) FROM p LIMIT 1`:                       sinkCollect,
		`SELECT DISTINCT k FROM p LIMIT 1`:                     sinkCollect,
		`SELECT id FROM p ORDER BY k`:                          sinkCollect,
		`SELECT p.id FROM p JOIN q ON p.k * q.v = q.v LIMIT 1`: sinkLimit,
	} {
		if got := planSink(t, e, sql); got != want {
			t.Errorf("%s: sink %d, want %d", sql, got, want)
		}
	}
}

// TestLimitSinkScanned: the limit sink stops the scan after k matching
// rows, and Scanned counts the rows examined up to there.
func TestLimitSinkScanned(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE r (id INT PRIMARY KEY, k INT)`)
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(i % 10))}
	}
	if err := e.BulkInsert("r", rows); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, `SELECT id FROM r WHERE k = 7 LIMIT 3`)
	if len(res.Rows) != 3 || res.Rows[2][0] != Int(27) {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Scanned != 28 {
		t.Fatalf("Scanned = %d, want 28 (rows 0..27)", res.Scanned)
	}
	if err := e.CreateIndex("r", "k"); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, e, `SELECT id FROM r WHERE k = 7 LIMIT 3`)
	if len(res.Rows) != 3 || res.Scanned != 3 {
		t.Fatalf("index probe: rows = %v, Scanned = %d, want 3 rows and 3", res.Rows, res.Scanned)
	}
}

// TestJoinNullKeysMatchNothing: an equi-join key that is NULL on both
// sides matches nothing, as "=" evaluates it; the hash join and the
// nested-loop form return the same rows. The hash join used to match
// NULL = NULL.
func TestJoinNullKeysMatchNothing(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE a (a_id INT PRIMARY KEY, a_x INT, a_s TEXT)`)
	mustExec(t, e, `CREATE TABLE b (b_id INT PRIMARY KEY, b_y INT, b_s TEXT)`)
	mustExec(t, e, `INSERT INTO a VALUES (1, NULL, 'u'), (2, 5, 'v'), (3, 5, NULL)`)
	mustExec(t, e, `INSERT INTO b VALUES (10, NULL, 'u'), (20, 5, 'v'), (30, 5, NULL)`)
	for _, pair := range [][2]string{
		{`SELECT a_id, b_id FROM a JOIN b ON a_x = b_y`, `SELECT a_id, b_id FROM a JOIN b ON a_x + 0 = b_y`},
		{`SELECT a_id, b_id FROM a JOIN b ON a_x = b_y AND a_s = b_s`, `SELECT a_id, b_id FROM a JOIN b ON a_x + 0 = b_y AND (a_s = b_s OR 0 = 1)`},
	} {
		hash, nested := mustExec(t, e, pair[0]), mustExec(t, e, pair[1])
		if !slices.Equal(sortedRowStrings(hash.Rows), sortedRowStrings(nested.Rows)) {
			t.Fatalf("%s = %v, but %s = %v", pair[0], hash.Rows, pair[1], nested.Rows)
		}
		for _, r := range hash.Rows {
			if r[0] == Int(1) || r[1] == Int(10) {
				t.Fatalf("%s matched a NULL key: %v", pair[0], hash.Rows)
			}
		}
	}
}

// TestCompositeJoinKeyBoundaries: a multi-column hash key cannot be
// forged by text containing the separator.
func TestCompositeJoinKeyBoundaries(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE l (id INT PRIMARY KEY, x TEXT, y TEXT)`)
	mustExec(t, e, `CREATE TABLE r (id INT PRIMARY KEY, x TEXT, y TEXT)`)
	mustExec(t, e, `INSERT INTO l VALUES (1, 'a|sb', 'c'), (2, 'as', 'b')`)
	mustExec(t, e, `INSERT INTO r VALUES (1, 'a', 'b|sc'), (2, 'a', 'sb')`)
	if res := mustExec(t, e, `SELECT l.id FROM l JOIN r ON l.x = r.x AND l.y = r.y`); len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none", res.Rows)
	}
}

// TestTypedKeyMatchesKey: valueKey equality is key() equality for
// every non-NULL value kind, including int/float crossovers.
func TestTypedKeyMatchesKey(t *testing.T) {
	vals := []Value{Int(0), Int(-3), Int(7), Float(0), Float(-0.0), Float(7), Float(7.5), Float(-3),
		Float(1e300), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()), Float(-math.NaN()),
		Text(""), Text("7"), Text("i7"), Text("a")}
	for _, a := range vals {
		ka, ok := a.typedKey()
		if !ok {
			t.Fatalf("%v: no typed key", a)
		}
		for _, b := range vals {
			kb, _ := b.typedKey()
			if (ka == kb) != (a.key() == b.key()) {
				t.Fatalf("%#v vs %#v: typed equal %v, key() equal %v", a, b, ka == kb, a.key() == b.key())
			}
		}
	}
	if _, ok := Null.typedKey(); ok {
		t.Fatal("NULL has a typed key")
	}
}

// TestHashJoinOutputOrder pins the equi-join output order: probe rows in
// order, each with its matches in build order. Both plans below probe
// with r and build on l (once as the joined table, once as the prefix);
// the LIMIT sink and the top-k tie order both depend on this order.
func TestHashJoinOutputOrder(t *testing.T) {
	e := New()
	mustExec(t, e, `CREATE TABLE l (id INT PRIMARY KEY, k INT)`)
	mustExec(t, e, `CREATE TABLE r (id INT PRIMARY KEY, k INT)`)
	mustExec(t, e, `INSERT INTO l VALUES (1, 2), (2, 1), (3, 2)`)
	mustExec(t, e, `INSERT INTO r VALUES (10, 1), (11, 2), (12, 1), (13, 2), (14, 3), (15, 2)`)
	want := "[[2 10] [1 11] [3 11] [2 12] [1 13] [3 13] [1 15] [3 15]]"
	for _, q := range []string{
		`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k`,
		`SELECT l.id, r.id FROM r JOIN l ON l.k = r.k`,
	} {
		if got := fmt.Sprint(mustExec(t, e, q).Rows); got != want {
			t.Fatalf("%s = %s, want %s", q, got, want)
		}
	}
}
