// Package lp provides a small linear and mixed-integer programming solver
// built on a two-phase primal simplex method with a depth-first
// branch-and-bound search for integer variables.
//
// It exists to solve the optimal allocation MILP of the paper's
// Appendix B (see internal/core's Optimal). The solver is exact on the
// instance sizes the paper reports optimal results for (clusters of up
// to seven backends); beyond a configurable node or time budget it
// returns the best incumbent found.
//
// The simplex works on a dense tableau, prices by Dantzig's rule and
// falls back to Bland's rule after a stall. Its pivots are sparse: they
// update only the nonzero columns of the pivot row, in the rows with a
// nonzero pivot-column entry, and so cost as much as the nonzeros while
// producing the dense pivot's tableau bit for bit. One tableau
// workspace serves both phases of every node of a solve.
//
// All problems are minimization problems over variables with finite
// lower bounds:
//
//	min c·x   subject to   A x {≤,=,≥} b,   lo ≤ x ≤ hi.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is the relation of a linear constraint.
type Rel int8

const (
	// LE constrains a row to ≤ rhs.
	LE Rel = iota
	// GE constrains a row to ≥ rhs.
	GE
	// EQ constrains a row to = rhs.
	EQ
)

// Term is one coefficient of a linear constraint: Coef × x[Var].
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a linear or mixed-integer program under construction.
// Create it with NewProblem, add variables and constraints, then call
// SolveLP or SolveMIP.
type Problem struct {
	obj     []float64
	lo, hi  []float64
	integer []bool
	rows    []constraint
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// AddVariable adds a variable with the given objective coefficient and
// bounds and returns its index. The lower bound must be finite; the
// upper bound may be math.Inf(1). If integer is true the variable is
// constrained to integral values by SolveMIP (SolveLP relaxes it).
func (p *Problem) AddVariable(obj, lo, hi float64, integer bool) int {
	if math.IsInf(lo, -1) || math.IsNaN(lo) {
		panic("lp: variable lower bound must be finite")
	}
	if hi < lo {
		panic("lp: variable upper bound below lower bound")
	}
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.integer = append(p.integer, integer)
	return len(p.obj) - 1
}

// AddBinary adds a {0,1} variable with the given objective coefficient.
func (p *Problem) AddBinary(obj float64) int {
	return p.AddVariable(obj, 0, 1, true)
}

// SetObjective replaces the objective coefficient of a variable. This
// allows re-solving the same constraint system under a second objective
// (the paper's two-phase optimal allocation).
func (p *Problem) SetObjective(v int, obj float64) { p.obj[v] = obj }

// SetBounds replaces the bounds of a variable.
func (p *Problem) SetBounds(v int, lo, hi float64) {
	if hi < lo {
		panic("lp: upper bound below lower bound")
	}
	p.lo[v], p.hi[v] = lo, hi
}

// AddConstraint adds the constraint Σ terms {rel} rhs. Terms referring
// to the same variable are summed.
func (p *Problem) AddConstraint(rel Rel, rhs float64, terms ...Term) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	p.rows = append(p.rows, constraint{terms: append([]Term(nil), terms...), rel: rel, rhs: rhs})
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// Status describes the outcome of a solve.
type Status int8

const (
	// Optimal: the returned solution is proven optimal.
	Optimal Status = iota
	// Feasible: a feasible (integer) solution was found but optimality
	// was not proven within the budget.
	Feasible
	// Infeasible: the problem has no feasible solution.
	Infeasible
	// Unbounded: the objective is unbounded below.
	Unbounded
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Solution is the result of SolveLP or SolveMIP.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Nodes is the number of branch-and-bound nodes explored (MIP only).
	Nodes int
}

const eps = 1e-9

// SolveLP solves the linear relaxation of the problem (integrality is
// ignored). It returns an error only for malformed problems or when the
// simplex exceeds its iteration limit; infeasible and unbounded
// outcomes are reported via Solution.Status.
func (p *Problem) SolveLP() (Solution, error) {
	return p.solveRelaxation(p.lo, p.hi, &workspace{})
}

// workspace is the simplex tableau and its scratch vectors. One SolveLP
// or SolveMIP call owns one workspace and reuses it for both phases of
// every branch-and-bound node, growing it to the largest node; it is
// garbage once the call returns.
type workspace struct {
	tabData []float64   // the tableau rows, one slab
	tab     [][]float64 // row views into tabData; column total is the rhs
	rhs     []float64
	rel     []Rel
	flip    []bool // row negated to make its rhs non-negative
	basis   []int  // basic column of each row, -1 for a dropped row
	cost, z []float64
	nz      []int // the columns the last pivot updated
	// total is the rhs column. ncol bounds the columns that are priced
	// and pivoted: all of them in phase 1, the non-artificial ones after.
	total, ncol int
	// kernel replaces sparsePivot when set; the tests install the dense
	// reference pivot to check that the two agree bit for bit.
	kernel func(w *workspace, row, col int)
}

// grow returns s resized to n zero elements, reusing its backing array
// when it is large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// solveRelaxation solves the LP with the given bounds (used by
// branch-and-bound to override bounds without copying the problem) in
// the workspace w.
func (p *Problem) solveRelaxation(lo, hi []float64, w *workspace) (Solution, error) {
	n := len(p.obj)
	if n == 0 {
		return Solution{Status: Optimal}, nil
	}

	// Shift variables by their lower bounds: x = y + lo, y >= 0.
	// Finite upper bounds become extra ≤ rows.
	nUB := 0
	for j := 0; j < n; j++ {
		if hi[j] < lo[j] {
			return Solution{Status: Infeasible}, nil
		}
		if !math.IsInf(hi[j], 1) {
			nUB++
		}
	}
	m := len(p.rows) + nUB
	w.rhs, w.rel, w.flip = grow(w.rhs, m), grow(w.rel, m), grow(w.flip, m)
	rhs, rel, flip := w.rhs, w.rel, w.flip
	for i, c := range p.rows {
		r := c.rhs
		for _, t := range c.terms {
			r -= t.Coef * lo[t.Var]
		}
		rhs[i], rel[i] = r, c.rel
	}
	ri := len(p.rows)
	for j := 0; j < n; j++ {
		if !math.IsInf(hi[j], 1) {
			rhs[ri], rel[ri] = hi[j]-lo[j], LE
			ri++
		}
	}

	// Normalize to rhs >= 0, then count auxiliary columns: a slack for
	// every LE row, a surplus and an artificial for every GE row, an
	// artificial for every EQ row.
	nSlack, nArt := 0, 0
	for i := 0; i < m; i++ {
		if rhs[i] < 0 {
			rhs[i], flip[i] = -rhs[i], true
			switch rel[i] {
			case LE:
				rel[i] = GE
			case GE:
				rel[i] = LE
			}
		}
		switch rel[i] {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	total := n + nSlack + nArt
	artStart := n + nSlack
	// tableau: m rows × (total+1) columns; the last column is the rhs.
	w.tabData = grow(w.tabData, m*(total+1))
	if cap(w.tab) < m {
		w.tab = make([][]float64, m)
	}
	w.tab, w.basis = w.tab[:m], grow(w.basis, m)
	w.total, w.ncol = total, total
	tab, basis := w.tab, w.basis
	si, ai := n, artStart
	ub := 0 // the variable of the next upper-bound row
	for i := 0; i < m; i++ {
		row := w.tabData[i*(total+1) : (i+1)*(total+1)]
		tab[i] = row
		if i < len(p.rows) {
			for _, t := range p.rows[i].terms {
				row[t.Var] += t.Coef
			}
		} else {
			for math.IsInf(hi[ub], 1) {
				ub++
			}
			row[ub] = 1
			ub++
		}
		if flip[i] {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
		}
		row[total] = rhs[i]
		switch rel[i] {
		case LE:
			row[si] = 1
			basis[i] = si
			si++
		case GE:
			row[si] = -1
			si++
			row[ai] = 1
			basis[i] = ai
			ai++
		case EQ:
			row[ai] = 1
			basis[i] = ai
			ai++
		}
	}
	maxIter := 200 * (m + total + 10)

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		w.cost = grow(w.cost, total)
		for j := artStart; j < total; j++ {
			w.cost[j] = 1
		}
		obj, stat, err := w.simplexRun(w.cost, maxIter)
		if err != nil {
			return Solution{}, err
		}
		if stat == Unbounded {
			return Solution{}, errors.New("lp: phase-1 unbounded (internal error)")
		}
		if obj > 1e-7 {
			return Solution{Status: Infeasible}, nil
		}
		// The artificial columns are dead from here on: nothing prices,
		// pivots or reads them again, which also forbids their re-entry.
		w.ncol = artStart
		// Drive remaining artificials out of the basis.
		for i := 0; i < m; i++ {
			if basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(tab[i][j]) > 1e-7 {
					w.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Row is redundant; zero it so it cannot interfere.
				clear(tab[i])
				basis[i] = -1
			}
		}
	}

	// Phase 2: original objective over the shifted variables.
	w.cost = grow(w.cost, artStart)
	copy(w.cost, p.obj)
	_, stat, err := w.simplexRun(w.cost, maxIter)
	if err != nil {
		return Solution{}, err
	}
	if stat == Unbounded {
		return Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	copy(x, lo)
	for i := 0; i < m; i++ {
		if b := basis[i]; b >= 0 && b < n {
			x[b] = lo[b] + tab[i][total]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.obj[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: objVal}, nil
}

// simplexRun runs the primal simplex on the workspace tableau, pricing
// the first w.ncol columns against cost, and returns the final
// objective value and a status (Optimal or Unbounded). It uses
// Dantzig's rule and switches to Bland's rule after maxIter/2 pivots,
// which guarantees termination, so needing more than maxIter pivots
// means numerical trouble: it is an error, never a claimed optimum.
func (w *workspace) simplexRun(cost []float64, maxIter int) (float64, Status, error) {
	tab, basis, ncol, total := w.tab, w.basis, w.ncol, w.total
	m := len(tab)
	// Reduced costs row.
	w.z = grow(w.z, total+1)
	z := w.z
	copy(z, cost)
	for i := 0; i < m; i++ {
		if b := basis[i]; b >= 0 && cost[b] != 0 {
			c, row := cost[b], tab[i]
			for j := 0; j < ncol; j++ {
				z[j] -= c * row[j]
			}
			z[total] -= c * row[total]
		}
	}

	bland := false
	for iter := 0; ; iter++ {
		if iter > maxIter/2 {
			bland = true
		}
		// Entering column.
		col := -1
		if bland {
			for j := 0; j < ncol; j++ {
				if z[j] < -eps {
					col = j
					break
				}
			}
		} else {
			best := -eps
			for j := 0; j < ncol; j++ {
				if z[j] < best {
					best = z[j]
					col = j
				}
			}
		}
		if col < 0 {
			return -z[total], Optimal, nil
		}
		if iter == maxIter {
			return 0, 0, errors.New("lp: iteration limit")
		}
		// Leaving row (minimum ratio).
		row := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := tab[i][col]
			if a > eps {
				r := tab[i][total] / a
				if r < bestRatio-eps || (r < bestRatio+eps && (row < 0 || basis[i] < basis[row])) {
					bestRatio = r
					row = i
				}
			}
		}
		if row < 0 {
			return 0, Unbounded, nil
		}
		w.pivot(row, col)
		// Update reduced costs over the columns the pivot touched.
		if zc := z[col]; zc != 0 {
			pr := tab[row]
			for _, j := range w.nz {
				z[j] -= zc * pr[j]
			}
		}
	}
}

// pivot performs a Gauss-Jordan pivot on tab[row][col] with the
// workspace's kernel.
func (w *workspace) pivot(row, col int) {
	if w.kernel != nil {
		w.kernel(w, row, col)
		return
	}
	w.sparsePivot(row, col)
}

// sparsePivot performs a Gauss-Jordan pivot on tab[row][col]. It scales
// the live nonzero columns of the pivot row, records them in w.nz and
// updates only those columns, only in rows whose pivot-column entry is
// nonzero. Every skipped update would have computed x - f*0 == x, so
// the tableau equals a dense pivot's bit for bit, up to the sign of
// zero entries, and every pricing and ratio-test decision is the same.
func (w *workspace) sparsePivot(row, col int) {
	pr := w.tab[row]
	inv := 1 / pr[col]
	nz := w.nz[:0]
	for j, v := range pr[:w.ncol] {
		if v != 0 {
			pr[j] = v * inv
			nz = append(nz, j)
		}
	}
	if v := pr[w.total]; v != 0 {
		pr[w.total] = v * inv
		nz = append(nz, w.total)
	}
	pr[col] = 1 // fight rounding
	for i, r := range w.tab {
		if i == row {
			continue
		}
		f := r[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			r[j] -= f * pr[j]
		}
		r[col] = 0
	}
	w.basis[row] = col
	w.nz = nz
}
