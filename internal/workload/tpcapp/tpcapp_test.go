package tpcapp

import (
	"math"
	"math/rand"
	"testing"

	"qcpa/internal/classify"
	"qcpa/internal/core"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
)

func TestPaperWorkloadStatistics(t *testing.T) {
	mix, err := Mix(300)
	if err != nil {
		t.Fatal(err)
	}
	// Read:write count ratio 1:7.
	readFreq := mix.WeightShare(func(tm workload.Template) bool { return !tm.Write })
	_ = readFreq
	var fr, fw float64
	for _, tm := range mix.Templates() {
		if tm.Write {
			fw += tm.Freq
		} else {
			fr += tm.Freq
		}
	}
	if math.Abs(fr/(fr+fw)-0.125) > 1e-9 {
		t.Fatalf("read request share = %v, want 0.125 (1:7)", fr/(fr+fw))
	}
	// Reads produce 3x the weight of writes (75/25).
	readWeight := mix.WeightShare(func(tm workload.Template) bool { return !tm.Write })
	if math.Abs(readWeight-0.75) > 1e-9 {
		t.Fatalf("read weight share = %v, want 0.75", readWeight)
	}
	// The complex read class: 50% of weight from 1.5% of requests.
	npWeight := mix.WeightShare(func(tm workload.Template) bool { return tm.Name == "newProducts" })
	if math.Abs(npWeight-0.50) > 1e-9 {
		t.Fatalf("newProducts weight = %v, want 0.50", npWeight)
	}
	for _, tm := range mix.Templates() {
		if tm.Name == "newProducts" && math.Abs(tm.Freq/(fr+fw)-0.015) > 1e-9 {
			t.Fatalf("newProducts frequency = %v, want 0.015", tm.Freq/(fr+fw))
		}
	}
	// Order_Line writes carry 13% of the weight.
	olWeight := mix.WeightShare(func(tm workload.Template) bool { return tm.Name == "insertOrderLine" })
	if math.Abs(olWeight-0.13) > 1e-9 {
		t.Fatalf("order_line write weight = %v, want 0.13", olWeight)
	}
}

func TestClassCounts(t *testing.T) {
	mix, _ := Mix(300)
	journal := mix.Journal(200000)
	schema := Schema()
	rows := RowCounts(300)
	tb, err := classify.Classify(journal, schema, classify.Options{Strategy: classify.TableBased, RowCounts: rows})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tb.Classification.Classes()); got != 8 {
		t.Fatalf("table-based classes = %d, want 8 (Section 4.2)", got)
	}
	cb, err := classify.Classify(journal, schema, classify.Options{Strategy: classify.ColumnBased, RowCounts: rows})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cb.Classification.Classes()); got != 10 {
		t.Fatalf("column-based classes = %d, want 10 (Section 4.2)", got)
	}
}

// TestMaxSpeedupMatchesEq30: the Order_Line write class bounds the
// speedup; on 10 backends the theoretical maximum is 10/1.3 = 7.69.
func TestMaxSpeedupMatchesEq30(t *testing.T) {
	mix, _ := Mix(300)
	journal := mix.Journal(200000)
	tb, err := classify.Classify(journal, Schema(), classify.Options{Strategy: classify.TableBased, RowCounts: RowCounts(300)})
	if err != nil {
		t.Fatal(err)
	}
	bound := tb.Classification.MaxSpeedup()
	if math.Abs(bound-1/0.13) > 0.01 {
		t.Fatalf("Eq. 17 bound = %v, want %v (Eq. 30's 7.7 on 10 backends)", bound, 1/0.13)
	}
	a, err := core.Greedy(tb.Classification, core.UniformBackends(10))
	if err != nil {
		t.Fatal(err)
	}
	if a.Speedup() > bound+1e-6 {
		t.Fatalf("allocation speedup %v above bound %v", a.Speedup(), bound)
	}
}

// TestFullReplicationSpeedupMatchesEq29: Amdahl's estimate for full
// replication on 10 backends is 1/(0.75/10 + 0.25) = 3.07.
func TestFullReplicationSpeedupMatchesEq29(t *testing.T) {
	mix, _ := Mix(300)
	journal := mix.Journal(200000)
	tb, _ := classify.Classify(journal, Schema(), classify.Options{Strategy: classify.TableBased, RowCounts: RowCounts(300)})
	full := core.FullReplication(tb.Classification, core.UniformBackends(10))
	want := 1 / (0.75/10 + 0.25)
	if math.Abs(full.Speedup()-want) > 0.01 {
		t.Fatalf("full replication speedup = %v, want %v (Eq. 29)", full.Speedup(), want)
	}
}

func TestLargeMixWeights(t *testing.T) {
	mix, err := LargeMix()
	if err != nil {
		t.Fatal(err)
	}
	readWeight := mix.WeightShare(func(tm workload.Template) bool { return !tm.Write })
	// 75 vs 25*3 -> 0.5.
	if math.Abs(readWeight-0.5) > 1e-9 {
		t.Fatalf("large-scale read weight = %v, want 0.5 (Figure 4(i): ~1:1)", readWeight)
	}
}

func TestAllTemplatesExecute(t *testing.T) {
	e := sqlmini.New()
	rows := map[string]int64{"author": 20, "item": 50, "customer": 60, "address": 120, "orders": 90, "order_line": 200}
	if err := Load(e, nil, rows, 1); err != nil {
		t.Fatal(err)
	}
	mix, _ := Mix(300)
	rng := rand.New(rand.NewSource(2))
	// Journals must execute.
	for _, tm := range mix.Templates() {
		if _, err := e.Exec(tm.Journal); err != nil {
			t.Fatalf("%s journal: %v", tm.Name, err)
		}
	}
	// Generated instances too. Note Gen uses full-scale id spaces, so
	// point lookups may miss — they must still execute without error.
	mix2, _ := Mix(1) // small id space to hit loaded rows
	for i := 0; i < 300; i++ {
		req := mix2.Next(rng)
		if _, err := e.Exec(req.SQL); err != nil {
			t.Fatalf("generated %q: %v", req.SQL, err)
		}
	}
	// Writes actually modified data.
	r, err := e.Exec(`SELECT COUNT(*) FROM order_line`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I <= 200 {
		t.Fatalf("no order lines inserted (count %v)", r.Rows[0][0])
	}
}

func TestMixBindAndRouting(t *testing.T) {
	mix, _ := Mix(300)
	journal := mix.Journal(200000)
	res, err := classify.Classify(journal, Schema(), classify.Options{Strategy: classify.TableBased, RowCounts: RowCounts(300)})
	if err != nil {
		t.Fatal(err)
	}
	mix.Bind(res)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		req := mix.Next(rng)
		if req.Class == "" {
			t.Fatal("request without class after Bind")
		}
		if res.Classification.Class(req.Class) == nil {
			t.Fatalf("request routed to unknown class %q", req.Class)
		}
		if req.Write != (res.Classification.Class(req.Class).Kind == core.Update) {
			t.Fatalf("write flag mismatch for %q", req.Class)
		}
	}
}

func TestRowCountsScaling(t *testing.T) {
	small, large := RowCounts(300), RowCounts(12000)
	if large["customer"] != 40*small["customer"] {
		t.Fatalf("EB scaling wrong: %d vs %d", large["customer"], small["customer"])
	}
	if small["country"] != large["country"] {
		t.Fatal("fixed tables must not scale")
	}
}

func TestLoadErrors(t *testing.T) {
	e := sqlmini.New()
	if err := Load(e, []string{"nope"}, nil, 1); err == nil {
		t.Fatal("unknown table accepted")
	}
}

// TestLoadTableIndependentOfCompanions is the regression test for
// replicas loading different data: a table loaded beside other tables
// must hold exactly the rows it gets when loaded on its own, as one
// backend holding {item, customer} and another holding {customer} do.
func TestLoadTableIndependentOfCompanions(t *testing.T) {
	rows := map[string]int64{"item": 300, "customer": 200, "orders": 400}
	together := sqlmini.New()
	if err := Load(together, []string{"item", "customer", "orders"}, rows, 7); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"item", "customer", "orders"} {
		alone := sqlmini.New()
		if err := Load(alone, []string{table}, rows, 7); err != nil {
			t.Fatal(err)
		}
		want, err := alone.TableChecksum(table)
		if err != nil {
			t.Fatal(err)
		}
		got, err := together.TableChecksum(table)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s loaded with companions has checksum %x, alone %x", table, got, want)
		}
	}
}
