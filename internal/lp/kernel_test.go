package lp

import (
	"math"
	"math/rand"
	"testing"
)

// densePivot is the reference kernel: a Gauss-Jordan pivot on
// tab[row][col] that updates every column of every row with a nonzero
// pivot-column entry, as the solver did before sparsePivot.
func densePivot(w *workspace, row, col int) {
	tab, total := w.tab, w.total
	p := tab[row][col]
	inv := 1 / p
	for j := 0; j <= total; j++ {
		tab[row][j] *= inv
	}
	tab[row][col] = 1 // fight rounding
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * tab[row][j]
		}
		tab[i][col] = 0
	}
	w.basis[row] = col
	w.nz = w.nz[:0]
	for j := 0; j <= total; j++ {
		w.nz = append(w.nz, j)
	}
}

// randomMixedMIP draws a program over the tableau paths the two
// property generators rarely reach: ≥ and = rows (phase 1 and the
// artificial drive-out), negative right-hand sides, and integers
// without an upper bound, whose branching adds rows so the workspace
// grows between nodes.
func randomMixedMIP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(5)
	p := NewProblem()
	for j := 0; j < n; j++ {
		switch rng.Intn(3) {
		case 0:
			p.AddBinary(rng.Float64()*4 - 2)
		case 1:
			p.AddVariable(rng.Float64()*4-2, 0, math.Inf(1), true)
		default:
			p.AddVariable(rng.Float64()*4-2, -1, 3, false)
		}
	}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) > 0 {
				terms = append(terms, Term{j, math.Round((rng.Float64()*4-2)*4) / 4})
			}
		}
		p.AddConstraint(Rel(rng.Intn(3)), rng.Float64()*6-2, terms...)
	}
	all := make([]Term, n)
	for j := range all {
		all[j] = Term{j, 1}
	}
	p.AddConstraint(LE, 7.5, all...)
	return p
}

// sameFloat reports bitwise equality, with +0 and -0 equal.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func sameSolution(a, b Solution) bool {
	if a.Status != b.Status || a.Nodes != b.Nodes || !sameFloat(a.Objective, b.Objective) || len(a.X) != len(b.X) {
		return false
	}
	for j := range a.X {
		if !sameFloat(a.X[j], b.X[j]) {
			return false
		}
	}
	return true
}

// TestSparsePivotBitIdentical: the sparse kernel returns bitwise the
// same X, Objective and Nodes as the dense reference pivot, so every
// pricing, ratio-test and branching decision is unchanged.
func TestSparsePivotBitIdentical(t *testing.T) {
	check := func(name string, seed int64, solve func(w *workspace) (Solution, error)) {
		t.Helper()
		got, gotErr := solve(&workspace{})
		want, wantErr := solve(&workspace{kernel: densePivot})
		if (gotErr != nil) != (wantErr != nil) || !sameSolution(got, want) {
			t.Fatalf("%s seed %d: sparse %+v (err %v), dense %+v (err %v)", name, seed, got, gotErr, want, wantErr)
		}
	}
	opts := MIPOptions{MaxNodes: 200}
	for seed := int64(0); seed < 300; seed++ {
		lpProb, _, _, _ := randomBoxLP(seed)
		check("box LP", seed, func(w *workspace) (Solution, error) {
			return lpProb.solveRelaxation(lpProb.lo, lpProb.hi, w)
		})
		mip, _, _, _ := randomBinaryMIP(seed)
		check("binary MIP", seed, func(w *workspace) (Solution, error) { return mip.solveMIP(opts, w) })
		mixed := randomMixedMIP(seed)
		check("mixed LP", seed, func(w *workspace) (Solution, error) {
			return mixed.solveRelaxation(mixed.lo, mixed.hi, w)
		})
		check("mixed MIP", seed, func(w *workspace) (Solution, error) { return mixed.solveMIP(opts, w) })
	}
}

// TestSimplexIterationLimit: a simplex that needs more pivots than its
// cap reports an error instead of claiming the current point optimal.
func TestSimplexIterationLimit(t *testing.T) {
	// min -x - y  s.t.  x + 2y ≤ 4,  3x + y ≤ 6, with slacks in columns
	// 2 and 3: Dantzig's rule needs two pivots to reach (1.6, 1.2).
	run := func(maxIter int) (float64, Status, error) {
		w := &workspace{
			tab:   [][]float64{{1, 2, 1, 0, 4}, {3, 1, 0, 1, 6}},
			basis: []int{2, 3},
			total: 4,
			ncol:  4,
		}
		return w.simplexRun([]float64{-1, -1, 0, 0}, maxIter)
	}
	if _, _, err := run(1); err == nil || err.Error() != "lp: iteration limit" {
		t.Fatalf("cap 1: err = %v, want lp: iteration limit", err)
	}
	obj, stat, err := run(2)
	if err != nil || stat != Optimal || !approx(obj, -2.8) {
		t.Fatalf("cap 2: obj %v status %v err %v, want -2.8 optimal", obj, stat, err)
	}
}
