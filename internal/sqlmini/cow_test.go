package sqlmini

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// cowModel is the reference state of the property test's table: its
// rows in physical order, mirrored statement by statement.
type cowModel struct {
	rows  []Row
	next  int64 // next unused primary key
	grps  int64 // grp values are drawn from [0, grps)
	round int
}

func (m *cowModel) clone() []Row {
	out := make([]Row, len(m.rows))
	for i, r := range m.rows {
		out[i] = append(Row(nil), r...)
	}
	return out
}

func (m *cowModel) find(id int64) int {
	for i, r := range m.rows {
		if r[0].I == id {
			return i
		}
	}
	return -1
}

// step draws one statement, applies it to the model and returns its
// SQL. Every drawn statement succeeds, so the engine must end up in
// the model's state.
func (m *cowModel) step(rng *rand.Rand) string {
	pick := func() Row { return m.rows[rng.Intn(len(m.rows))] }
	switch op := rng.Intn(20); {
	case op < 6 || len(m.rows) < 10: // INSERT, sometimes several rows
		var vals []string
		for k := 1 + rng.Intn(3); k > 0; k-- {
			r := Row{Int(m.next), Int(rng.Int63n(m.grps)), Int(rng.Int63n(1000)), Text(fmt.Sprintf("i%d", m.round))}
			m.next++
			m.rows = append(m.rows, r)
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, '%s')", r[0].I, r[1].I, r[2].I, r[3].S))
		}
		return "INSERT INTO p VALUES " + strings.Join(vals, ", ")
	case op < 11: // UPDATE of non-key columns
		r := pick()
		r[2] = Int(r[2].I + 1)
		r[3] = Text(fmt.Sprintf("u%d", m.round))
		return fmt.Sprintf("UPDATE p SET val = val + 1, note = 'u%d' WHERE id = %d", m.round, r[0].I)
	case op < 14: // UPDATE that changes the primary key
		r := pick()
		old := r[0].I
		r[0] = Int(m.next)
		m.next++
		return fmt.Sprintf("UPDATE p SET id = %d WHERE id = %d", r[0].I, old)
	case op < 17: // UPDATE that changes the indexed column
		r := pick()
		r[1] = Int(rng.Int63n(m.grps))
		return fmt.Sprintf("UPDATE p SET grp = %d WHERE id = %d", r[1].I, r[0].I)
	case op < 18: // multi-row UPDATE through a full scan
		g := rng.Int63n(m.grps)
		for _, r := range m.rows {
			if r[1].I == g {
				r[2] = Int(r[2].I * 2)
			}
		}
		return fmt.Sprintf("UPDATE p SET val = val * 2 WHERE grp = %d", g)
	default: // DELETE one row, or a group's low values
		if rng.Intn(2) == 0 {
			id := pick()[0].I
			i := m.find(id)
			m.rows = append(m.rows[:i], m.rows[i+1:]...)
			return fmt.Sprintf("DELETE FROM p WHERE id = %d", id)
		}
		g, v := rng.Int63n(m.grps), rng.Int63n(200)
		kept := m.rows[:0]
		for _, r := range m.rows {
			if !(r[1].I == g && r[2].I < v) {
				kept = append(kept, r)
			}
		}
		m.rows = kept
		return fmt.Sprintf("DELETE FROM p WHERE grp = %d AND val < %d", g, v)
	}
}

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

// pinned is a view with the model state captured when it was pinned.
type pinned struct {
	view  View
	rows  []Row
	round int
}

// cowRowsKey renders rows for comparison.
func cowRowsKey(rows []Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, v := range r {
			sb.WriteString(v.key())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkPinned compares one pinned view's full scan, pk probes and index
// probes with its captured model state.
func checkPinned(e *Engine, p pinned, grps int64, maxID int64) error {
	q := func(sql string) (*Result, error) {
		r, err := e.QueryView(p.view, sql)
		if err != nil {
			return nil, fmt.Errorf("round %d: %s: %v", p.round, sql, err)
		}
		return r, nil
	}
	const cols = "SELECT id, grp, val, note FROM p"
	r, err := q(cols)
	if err != nil {
		return err
	}
	if got, want := cowRowsKey(r.Rows), cowRowsKey(p.rows); got != want {
		return fmt.Errorf("round %d: full scan differs from the model (%d rows, want %d)", p.round, len(r.Rows), len(p.rows))
	}
	byID := make(map[int64]Row, len(p.rows))
	for _, row := range p.rows {
		byID[row[0].I] = row
	}
	for id := int64(0); id < maxID; id += 7 {
		r, err := q(fmt.Sprintf("%s WHERE id = %d", cols, id))
		if err != nil {
			return err
		}
		var want []Row
		if row, ok := byID[id]; ok {
			want = []Row{row}
		}
		if cowRowsKey(r.Rows) != cowRowsKey(want) || r.Scanned != 1 {
			return fmt.Errorf("round %d: pk probe id=%d got %v (scanned %d), want %v", p.round, id, r.Rows, r.Scanned, want)
		}
	}
	for g := int64(0); g <= grps; g++ {
		r, err := q(fmt.Sprintf("%s WHERE grp = %d", cols, g))
		if err != nil {
			return err
		}
		var want []Row
		for _, row := range p.rows {
			if row[1].I == g {
				want = append(want, row)
			}
		}
		if cowRowsKey(r.Rows) != cowRowsKey(want) || r.Scanned != int64(len(want)) {
			return fmt.Errorf("round %d: index probe grp=%d got %d rows (scanned %d), want %d", p.round, g, len(r.Rows), r.Scanned, len(want))
		}
	}
	return nil
}

// TestPinnedViewCOWIsolation is the copy-on-write isolation property:
// seeded random ApplyRound batches — INSERTs, UPDATEs of non-key
// columns, of the primary key and of the indexed column, full-scan
// UPDATEs and DELETEs — run over a table spanning several chunks and
// every shard. A view is pinned after each round; a concurrent reader
// checks each view while later rounds commit, and at the end every
// pinned view's full scan, pk probes and index probes must still equal
// the model state captured when it was pinned.
func TestPinnedViewCOWIsolation(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			m := &cowModel{grps: 11}
			e := New()
			mustExec(t, e, `CREATE TABLE p (id INT PRIMARY KEY, grp INT, val INT, note TEXT)`)
			const initial = 5*chunkRows + 37
			for i := 0; i < initial; i++ {
				m.rows = append(m.rows, Row{Int(m.next), Int(m.next % m.grps), Int(int64(i % 1000)), Text("seed")})
				m.next++
			}
			if err := e.BulkInsert("p", m.clone()); err != nil {
				t.Fatal(err)
			}
			if err := e.CreateIndex("p", "grp"); err != nil {
				t.Fatal(err)
			}

			const rounds = 40
			views := make(chan pinned, rounds)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range views {
					if err := checkPinned(e, p, m.grps, initial+400); err != nil {
						t.Error("concurrent check:", err)
						return
					}
				}
			}()

			var all []pinned
		rounds:
			for round := 1; round <= rounds; round++ {
				m.round = round
				var stmts []Statement
				for k := 1 + rng.Intn(6); k > 0; k-- {
					stmts = append(stmts, mustParse(t, m.step(rng)))
				}
				for i, rr := range e.ApplyRound(stmts) {
					if rr.Err != nil {
						t.Errorf("round %d statement %d: %v", round, i, rr.Err)
						break rounds
					}
				}
				p := pinned{view: e.AcquireView(), rows: m.clone(), round: round}
				all = append(all, p)
				views <- p
			}
			close(views)
			wg.Wait()
			if t.Failed() {
				return
			}
			for _, p := range all {
				if err := checkPinned(e, p, m.grps, m.next); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
