package sqlmini

import (
	"fmt"
	"testing"
)

// estimateNDV is the flat-slice estimator the planner used before rows
// were chunked, kept verbatim as the reference the chunked path must
// reproduce bit for bit.
func estimateNDV(rows []Row, col int) float64 {
	n := len(rows)
	sample := n
	if sample > statsSampleRows {
		sample = statsSampleRows
	}
	seen := make(map[string]struct{}, sample)
	for i := 0; i < sample; i++ {
		seen[rows[i][col].key()] = struct{}{}
	}
	d := len(seen)
	if d < 1 {
		d = 1
	}
	est := float64(d)
	if n > sample {
		if d*4 >= sample*3 {
			est = float64(d) * float64(n) / float64(sample)
		}
	}
	if est > float64(n) {
		est = float64(n)
	}
	if est < 1 {
		est = 1
	}
	return est
}

// TestChunkedNDVMatchesFlat: a table spread over many chunks yields
// exactly the estimate of its flat row slice — the prefix sample spans
// chunk boundaries and the extrapolation uses the full row count — for
// sizes on both sides of one chunk and of the sample, and for key-like,
// category-like and mixed columns.
func TestChunkedNDVMatchesFlat(t *testing.T) {
	for _, n := range []int{1, chunkRows - 1, chunkRows, chunkRows + 1, statsSampleRows - 1,
		statsSampleRows, statsSampleRows + 1, 3*statsSampleRows + 77} {
		e := New()
		mustExec(t, e, `CREATE TABLE s (id INT PRIMARY KEY, cat INT, half INT, tag TEXT)`)
		flat := make([]Row, 0, n)
		for i := 0; i < n; i++ {
			flat = append(flat, Row{Int(int64(i)), Int(int64(i % 7)), Int(int64(i / 2)),
				Text(fmt.Sprintf("t%d", (i*7919)%1543))})
		}
		if err := e.BulkInsert("s", flat); err != nil {
			t.Fatal(err)
		}
		tv := e.loadView().tables["s"]
		if tv.rows.n != n || (n > chunkRows && len(tv.rows.chunks) < 2) {
			t.Fatalf("n=%d: store holds %d rows in %d chunks", n, tv.rows.n, len(tv.rows.chunks))
		}
		for col := 0; col < 4; col++ {
			if got, want := tv.ndvEstimate(col), estimateNDV(flat, col); got != want {
				t.Fatalf("n=%d col %d: chunked ndv %v, flat %v", n, col, got, want)
			}
		}
	}
}
