package sqlmini

//qcpa:deterministic — plan choice feeds replicated execution; the same
// statement and statistics must yield a bit-identical plan on every
// replica, run, and worker count.

// This file is the sqlmini query planner (DESIGN.md §13):
//
//   - Normalized-statement plan cache. A deterministic AST walk renders
//     every SELECT to a canonical shape string with literals replaced by
//     "?" (the same normalization the cluster's query journal applies to
//     SQL text) and extracts the literal values as parameters. The cache
//     maps shape -> fully bound plan, so repeated query classes skip
//     parsing's downstream work entirely: binder resolution, conjunct
//     analysis, join ordering, and output binding all happen once per
//     class. Invalidation: DDL (CREATE/DROP TABLE, CREATE INDEX) and
//     snapshot restores bump a generation counter and drop every entry
//     (live-migration cutover restores through the same paths); row-count
//     drift beyond 4x triggers a per-plan rebuild; a pinned view whose
//     schema no longer matches the plan falls back to an uncached
//     transient plan.
//
//   - Cost-based join ordering. Joins of up to maxDPTables tables get an
//     exact dynamic program over subsets (left-deep, bitmask-indexed
//     slices — no map iteration anywhere near the choice); larger graphs
//     fall back to a greedy nearest-neighbor order. Costs come from the
//     per-view statistics in tablestats.go: scan cardinality after
//     pushdown, equi-join selectivity 1/max(ndv_l, ndv_r), hash join
//     build+probe+output, nested loop |L|x|R|.
//
//   - Predicate pushdown. WHERE and ON are split into conjuncts at plan
//     time; conjuncts referencing a single table run at that table's
//     scan (or pick its access path: pk probe, secondary-index probe),
//     equality conjuncts linking two tables become hash-join keys, and
//     everything else runs at the first join step where all referenced
//     tables are available — nothing filters the full join product
//     anymore.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// maxDPTables is the largest join graph planned by exact DP; beyond it
// the greedy order kicks in. 6 tables = 63 subsets, far below where DP
// cost would show up next to execution.
const maxDPTables = 6

// planCacheCap bounds the plan cache. When full, the least-frequently
// used eighth is evicted (ties broken in sorted key order), matching the
// cluster journal's eviction policy.
const planCacheCap = 512

// planDriftFactor is the row-count ratio past which a cached plan's
// join order is considered stale and the plan is rebuilt.
const planDriftFactor = 4

// planDriftMinRows exempts small tables from drift checks: join order
// barely matters under this size and tiny tables cross any ratio with a
// handful of inserts.
const planDriftMinRows = 64

// boundParam is a literal extracted by statement normalization: the
// idx-th "?" of the canonical shape. Execution supplies the actual
// values through evalCtx.params, so one cached plan serves every
// literal binding of its query class.
type boundParam struct{ idx int }

func (*boundParam) isExpr() {}

// ---------------------------------------------------------------------
// Statement normalization
// ---------------------------------------------------------------------

// canonizer renders a SELECT to its canonical shape, collecting literal
// values in order. With build set it additionally produces a
// parameterized copy of each expression (literals replaced by
// boundParam) for the plan builder to bind.
type canonizer struct {
	sb     strings.Builder
	params []Value
	build  bool
}

func (c *canonizer) expr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		c.sb.WriteByte('_')
		return nil
	case *Lit:
		c.sb.WriteByte('?')
		idx := len(c.params)
		c.params = append(c.params, x.V)
		if c.build {
			return &boundParam{idx: idx}
		}
		return x
	case *boundParam:
		c.sb.WriteByte('?')
		c.params = append(c.params, Null)
		return x
	case *ColRef:
		c.sb.WriteString("c<")
		c.sb.WriteString(x.Table)
		c.sb.WriteByte('.')
		c.sb.WriteString(x.Column)
		c.sb.WriteByte('>')
		return x
	case *BinOp:
		c.sb.WriteByte('(')
		c.sb.WriteString(x.Op)
		c.sb.WriteByte(' ')
		l := c.expr(x.L)
		c.sb.WriteByte(' ')
		r := c.expr(x.R)
		c.sb.WriteByte(')')
		if c.build {
			return &BinOp{Op: x.Op, L: l, R: r}
		}
		return x
	case *UnOp:
		c.sb.WriteString("(u")
		c.sb.WriteString(x.Op)
		c.sb.WriteByte(' ')
		inner := c.expr(x.E)
		c.sb.WriteByte(')')
		if c.build {
			return &UnOp{Op: x.Op, E: inner}
		}
		return x
	case *Between:
		c.sb.WriteString("(bt")
		if x.Negate {
			c.sb.WriteByte('!')
		}
		c.sb.WriteByte(' ')
		ee := c.expr(x.E)
		c.sb.WriteByte(' ')
		lo := c.expr(x.Lo)
		c.sb.WriteByte(' ')
		hi := c.expr(x.Hi)
		c.sb.WriteByte(')')
		if c.build {
			return &Between{E: ee, Lo: lo, Hi: hi, Negate: x.Negate}
		}
		return x
	case *InList:
		c.sb.WriteString("(in")
		if x.Negate {
			c.sb.WriteByte('!')
		}
		c.sb.WriteByte(' ')
		ee := c.expr(x.E)
		list := make([]Expr, len(x.List))
		for i, le := range x.List {
			c.sb.WriteByte(' ')
			list[i] = c.expr(le)
		}
		c.sb.WriteByte(')')
		if c.build {
			return &InList{E: ee, List: list, Negate: x.Negate}
		}
		return x
	case *IsNull:
		c.sb.WriteString("(nul")
		if x.Negate {
			c.sb.WriteByte('!')
		}
		c.sb.WriteByte(' ')
		ee := c.expr(x.E)
		c.sb.WriteByte(')')
		if c.build {
			return &IsNull{E: ee, Negate: x.Negate}
		}
		return x
	case *Agg:
		c.sb.WriteString("(agg:")
		c.sb.WriteString(x.Func)
		if x.Distinct {
			c.sb.WriteString(":d")
		}
		c.sb.WriteByte(' ')
		var ee Expr
		if x.E == nil {
			c.sb.WriteByte('*')
		} else {
			ee = c.expr(x.E)
		}
		c.sb.WriteByte(')')
		if c.build {
			return &Agg{Func: x.Func, E: ee, Distinct: x.Distinct}
		}
		return x
	}
	// Unknown node kinds make the statement unplannable through the
	// cache; binding will reject them with a precise error.
	c.sb.WriteString("!?")
	return e
}

// canonSelect renders the canonical shape of st, extracts its literal
// parameters, and (when build is set) returns a parameterized copy.
func canonSelect(st *SelectStmt, build bool) (string, []Value, *SelectStmt) {
	c := &canonizer{build: build}
	var out *SelectStmt
	if build {
		out = &SelectStmt{
			Distinct: st.Distinct,
			Table:    st.Table,
			Alias:    st.Alias,
			Limit:    st.Limit,
		}
	}
	c.sb.WriteByte('S')
	if st.Distinct {
		c.sb.WriteByte('D')
	}
	for _, it := range st.Items {
		c.sb.WriteString("|i:")
		if it.Star {
			c.sb.WriteByte('*')
			if build {
				out.Items = append(out.Items, SelectItem{Star: true})
			}
			continue
		}
		ex := c.expr(it.Expr)
		if it.Alias != "" {
			c.sb.WriteString(":a<")
			c.sb.WriteString(it.Alias)
			c.sb.WriteByte('>')
		}
		if build {
			out.Items = append(out.Items, SelectItem{Expr: ex, Alias: it.Alias})
		}
	}
	c.sb.WriteString("|f:")
	c.sb.WriteString(st.Table)
	c.sb.WriteString(":a<")
	c.sb.WriteString(st.Alias)
	c.sb.WriteByte('>')
	for _, j := range st.Joins {
		c.sb.WriteString("|j:")
		c.sb.WriteString(j.Table)
		c.sb.WriteString(":a<")
		c.sb.WriteString(j.Alias)
		c.sb.WriteString(">:")
		on := c.expr(j.On)
		if build {
			out.Joins = append(out.Joins, JoinClause{Table: j.Table, Alias: j.Alias, On: on})
		}
	}
	if st.Where != nil {
		c.sb.WriteString("|w:")
		w := c.expr(st.Where)
		if build {
			out.Where = w
		}
	}
	for _, g := range st.GroupBy {
		c.sb.WriteString("|g:")
		bg := c.expr(g)
		if build {
			out.GroupBy = append(out.GroupBy, bg)
		}
	}
	if st.Having != nil {
		c.sb.WriteString("|h:")
		h := c.expr(st.Having)
		if build {
			out.Having = h
		}
	}
	for _, ob := range st.OrderBy {
		c.sb.WriteString("|o:")
		oe := c.expr(ob.Expr)
		if ob.Desc {
			c.sb.WriteString(":d")
		}
		if build {
			out.OrderBy = append(out.OrderBy, OrderItem{Expr: oe, Desc: ob.Desc})
		}
	}
	if st.Limit >= 0 {
		c.sb.WriteString("|l:")
		c.sb.WriteString(strconv.Itoa(st.Limit))
	}
	return c.sb.String(), c.params, out
}

// ---------------------------------------------------------------------
// Conjunct analysis
// ---------------------------------------------------------------------

// predKind classifies a single-table conjunct for selectivity
// estimation.
type predKind uint8

const (
	predOther predKind = iota
	predEqConst
	predRange
	predBetween
	predIn
	predLike
	predIsNull
)

// conjunct is one AND-term of WHERE/ON, annotated with the (textual)
// tables it references and the patterns the planner exploits.
type conjunct struct {
	expr Expr   // parameterized, unbound
	mask uint64 // bitmask of textual table indices referenced

	// Equi-join shape: tblL.colL = tblR.colR across two tables.
	isEquiJoin       bool
	eqLTable, eqLCol int
	eqRTable, eqRCol int

	// Single-table constant shape and selectivity class.
	kind     predKind
	constCol int  // column (within its table) for predEqConst
	constVal Expr // Lit/boundParam for predEqConst
	inLen    int
}

// splitConjuncts flattens top-level ANDs. Splitting is semantics
// preserving under eval's three-valued logic: a row passes "a AND b"
// exactly when both conjuncts evaluate truthy (NULL counts as false in
// both forms).
func splitConjuncts(e Expr, out *[]Expr) {
	if e == nil {
		return
	}
	if bo, ok := e.(*BinOp); ok && bo.Op == "AND" {
		splitConjuncts(bo.L, out)
		splitConjuncts(bo.R, out)
		return
	}
	*out = append(*out, e)
}

// collectColRefs gathers every column reference of an expression.
func collectColRefs(e Expr, out *[]*ColRef) {
	switch x := e.(type) {
	case *ColRef:
		*out = append(*out, x)
	case *UnOp:
		collectColRefs(x.E, out)
	case *BinOp:
		collectColRefs(x.L, out)
		collectColRefs(x.R, out)
	case *Between:
		collectColRefs(x.E, out)
		collectColRefs(x.Lo, out)
		collectColRefs(x.Hi, out)
	case *InList:
		collectColRefs(x.E, out)
		for _, le := range x.List {
			collectColRefs(le, out)
		}
	case *IsNull:
		collectColRefs(x.E, out)
	case *Agg:
		collectColRefs(x.E, out)
	}
}

// isConstExpr reports whether e evaluates without a row (literal or
// extracted parameter).
func isConstExpr(e Expr) bool {
	switch e.(type) {
	case *Lit, *boundParam:
		return true
	}
	return false
}

// classifyConjunct resolves a conjunct's column references against the
// textual binder and annotates the planner-relevant shapes. slotTable
// maps binder slot index -> textual table index.
func classifyConjunct(e Expr, tb *binder, slotTable []int) (conjunct, error) {
	c := conjunct{expr: e}
	var refs []*ColRef
	collectColRefs(e, &refs)
	for _, r := range refs {
		idx, err := tb.resolve(r)
		if err != nil {
			return c, err
		}
		c.mask |= 1 << uint(slotTable[idx])
	}
	nTables := popcount(c.mask)

	resolveCol := func(r *ColRef) (table, col int) {
		idx, _ := tb.resolve(r) // already resolved above
		return slotTable[idx], tb.slots[idx].col
	}

	switch x := e.(type) {
	case *BinOp:
		switch x.Op {
		case "=":
			lc, lok := x.L.(*ColRef)
			rc, rok := x.R.(*ColRef)
			if lok && rok && nTables == 2 {
				lt, lcol := resolveCol(lc)
				rt, rcol := resolveCol(rc)
				if lt != rt {
					c.isEquiJoin = true
					c.eqLTable, c.eqLCol = lt, lcol
					c.eqRTable, c.eqRCol = rt, rcol
				}
				return c, nil
			}
			if nTables == 1 {
				if lok && isConstExpr(x.R) {
					_, col := resolveCol(lc)
					c.kind, c.constCol, c.constVal = predEqConst, col, x.R
				} else if rok && isConstExpr(x.L) {
					_, col := resolveCol(rc)
					c.kind, c.constCol, c.constVal = predEqConst, col, x.L
				}
			}
		case "<", "<=", ">", ">=":
			if nTables == 1 {
				c.kind = predRange
			}
		case "LIKE":
			if nTables == 1 {
				c.kind = predLike
			}
		}
	case *Between:
		if nTables == 1 {
			c.kind = predBetween
		}
	case *InList:
		if nTables == 1 {
			c.kind = predIn
			c.inLen = len(x.List)
		}
	case *IsNull:
		if nTables == 1 {
			c.kind = predIsNull
		}
	}
	return c, nil
}

func popcount(m uint64) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// conjunctSelectivity estimates the fraction of a table's rows passing
// a single-table conjunct. The constants are coarse on purpose: the
// planner only needs relative magnitudes good enough to order joins.
func conjunctSelectivity(c conjunct, tv *tableView) float64 {
	n := float64(tv.rows.n)
	if n < 1 {
		n = 1
	}
	switch c.kind {
	case predEqConst:
		return 1 / tv.ndvEstimate(c.constCol)
	case predRange:
		return 0.30
	case predBetween:
		return 0.25
	case predIn:
		sel := float64(c.inLen) / n
		if sel > 1 {
			sel = 1
		}
		if sel < 1/n {
			sel = 1 / n
		}
		return sel
	case predLike:
		return 0.25
	case predIsNull:
		return 0.10
	default:
		return 0.33
	}
}

// ---------------------------------------------------------------------
// Join ordering
// ---------------------------------------------------------------------

// equiEdge is one equi-join conjunct viewed as a weighted edge of the
// join graph.
type equiEdge struct {
	a, b int // textual table indices
	sel  float64
}

// joinStepCost models joining an accumulated intermediate of leftCard
// rows with a base table of rightCard rows. Connected pairs hash-join
// (build + probe + output); disconnected pairs nested-loop (every
// pair). Returns (cost, output cardinality).
func joinStepCost(leftCard, rightCard float64, edges []equiEdge, placed uint64, next int) (float64, float64) {
	sel := 1.0
	connected := false
	for _, e := range edges {
		if (e.a == next && placed&(1<<uint(e.b)) != 0) ||
			(e.b == next && placed&(1<<uint(e.a)) != 0) {
			connected = true
			sel *= e.sel
		}
	}
	out := leftCard * rightCard * sel
	if out < 0 {
		out = 0
	}
	if connected {
		return leftCard + rightCard + out, out
	}
	return leftCard*rightCard + out, out
}

// chooseJoinOrder picks the join order for textual tables with the
// given post-pushdown cardinalities. Exact left-deep DP up to
// maxDPTables, greedy beyond. The result is a permutation of 0..n-1 and
// is a pure function of (cards, edges): bitmask-indexed slices and
// ascending iteration keep it bit-identical across runs.
func chooseJoinOrder(cards []float64, edges []equiEdge) []int {
	n := len(cards)
	if n <= 1 {
		return []int{0}
	}
	if n <= maxDPTables {
		return dpJoinOrder(cards, edges)
	}
	return greedyJoinOrder(cards, edges)
}

func dpJoinOrder(cards []float64, edges []equiEdge) []int {
	n := len(cards)
	full := uint64(1)<<uint(n) - 1
	type dpEnt struct {
		cost, card float64
		last       int
		prev       uint64
		ok         bool
	}
	dp := make([]dpEnt, full+1)
	for i := 0; i < n; i++ {
		m := uint64(1) << uint(i)
		dp[m] = dpEnt{cost: cards[i], card: cards[i], last: i, prev: 0, ok: true}
	}
	for mask := uint64(1); mask <= full; mask++ {
		if popcount(mask) < 2 {
			continue
		}
		best := dpEnt{}
		for j := 0; j < n; j++ {
			bit := uint64(1) << uint(j)
			if mask&bit == 0 {
				continue
			}
			prev := mask &^ bit
			pe := dp[prev]
			if !pe.ok {
				continue
			}
			stepCost, out := joinStepCost(pe.card, cards[j], edges, prev, j)
			total := pe.cost + cards[j] + stepCost
			if !best.ok || total < best.cost {
				best = dpEnt{cost: total, card: out, last: j, prev: prev, ok: true}
			}
		}
		dp[mask] = best
	}
	order := make([]int, 0, n)
	for mask := full; mask != 0; {
		e := dp[mask]
		order = append(order, e.last)
		mask = e.prev
	}
	// Reverse: backtracking produced last-to-first.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func greedyJoinOrder(cards []float64, edges []equiEdge) []int {
	n := len(cards)
	order := make([]int, 0, n)
	start := 0
	for i := 1; i < n; i++ {
		if cards[i] < cards[start] {
			start = i
		}
	}
	order = append(order, start)
	placed := uint64(1) << uint(start)
	curCard := cards[start]
	for len(order) < n {
		best := -1
		var bestTotal, bestCard float64
		for j := 0; j < n; j++ {
			if placed&(1<<uint(j)) != 0 {
				continue
			}
			stepCost, out := joinStepCost(curCard, cards[j], edges, placed, j)
			total := cards[j] + stepCost
			if best < 0 || total < bestTotal {
				best, bestTotal, bestCard = j, total, out
			}
		}
		order = append(order, best)
		placed |= 1 << uint(best)
		curCard = bestCard
	}
	return order
}

// ---------------------------------------------------------------------
// Plan structure
// ---------------------------------------------------------------------

type accessKind uint8

const (
	accessFull accessKind = iota
	accessPkEq
	accessIdxEq
)

// scanNode is one base-table access in physical (join) order.
type scanNode struct {
	table string
	alias string
	t     *Table // schema identity captured at plan time

	access  accessKind
	keyCol  int  // probed column (pk or indexed) for accessPkEq/IdxEq
	keyExpr Expr // const expr supplying the probe value

	filter []Expr // pushed-down conjuncts, bound to this table's row

	planRows int // view row count at plan time, for drift detection
}

// joinNode joins scans[i+1] to the accumulated prefix.
type joinNode struct {
	leftKeys  []int  // key columns as prefix-layout indices
	rightKeys []int  // key columns within the right table's row
	extra     []Expr // residual conjuncts, bound to prefix+right layout
}

// orderSpec is one pre-resolved ORDER BY item.
type orderSpec struct {
	outIdx int  // >= 0: sort by that output column
	expr   Expr // else: bound expression over the input row
	desc   bool
}

// selectPlan is a fully bound, immutable, concurrently executable plan
// for one normalized SELECT class.
type selectPlan struct {
	gen    int64 // plan-cache generation the plan was built under
	tables int

	consts []Expr // conjuncts referencing no columns
	scans  []scanNode
	joins  []joinNode

	outExprs []Expr
	outNames []string
	aggs     []*Agg
	groupBy  []Expr
	having   Expr
	distinct bool
	orderBy  []orderSpec
	limit    int
	sink     sinkKind // how run finishes the last stage's rows (sink.go)

	reordered bool // join order differs from textual order
}

// schemaMatches reports whether the plan can execute against v: every
// scanned table must exist with the same schema identity (the *Table
// pointer is stable for a table's lifetime; DROP+CREATE and restores
// produce a new one).
func (p *selectPlan) schemaMatches(v *readView) bool {
	for i := range p.scans {
		tv, ok := v.tables[p.scans[i].table]
		if !ok || tv.t != p.scans[i].t {
			return false
		}
	}
	return true
}

// drifted reports whether any scanned table's row count moved more than
// planDriftFactor from plan time, invalidating the join order.
func (p *selectPlan) drifted(v *readView) bool {
	if p.tables < 2 {
		return false // no join order to get wrong
	}
	for i := range p.scans {
		tv, ok := v.tables[p.scans[i].table]
		if !ok {
			return true
		}
		cur, old := tv.rows.n, p.scans[i].planRows
		if cur < planDriftMinRows && old < planDriftMinRows {
			continue
		}
		if cur > old*planDriftFactor || old > cur*planDriftFactor {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

type planEntry struct {
	plan *selectPlan
	uses atomic.Int64
}

// planCache maps canonical statement shape -> bound plan, with LFU
// eviction and generation-based invalidation. The hit path takes only
// the read lock plus atomic counter bumps — concurrent snapshot reads
// must not serialize on the planner (the whole point of PR 6's
// lock-free read epochs). mu (write) guards the map itself; the
// counters are atomics surfacing through Engine.PlannerStats.
type planCache struct {
	mu      sync.RWMutex
	entries map[string]*planEntry

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
	joinPlans     atomic.Int64
	reordered     atomic.Int64
}

// lookup returns the cached plan for key if it is valid for generation
// gen and view v. current marks v as the engine's latest view: only
// then do drift-stale entries get dropped (a pinned historical view
// must not evict plans that are fine for the present).
func (c *planCache) lookup(key string, gen int64, v *readView, current bool) *selectPlan {
	c.mu.RLock()
	en := c.entries[key]
	c.mu.RUnlock()
	if en == nil {
		c.misses.Add(1)
		return nil
	}
	p := en.plan
	stale := p.gen != gen
	if !stale && p.schemaMatches(v) && !p.drifted(v) {
		en.uses.Add(1)
		c.hits.Add(1)
		return p
	}
	// Stale: drop the entry — always on a generation mismatch, but on
	// schema/drift mismatch only for the current view.
	if stale || current {
		c.mu.Lock()
		if c.entries[key] == en { // keep a racing replacement
			delete(c.entries, key)
			c.invalidations.Add(1)
		}
		c.mu.Unlock()
	}
	c.misses.Add(1)
	return nil
}

// store caches a freshly built plan, evicting the least-frequently-used
// eighth when full. A plan built under an older generation than the
// current one is dropped by the next lookup's gen check, so no re-check
// is needed here.
func (c *planCache) store(key string, p *selectPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]*planEntry)
	}
	if _, exists := c.entries[key]; !exists && len(c.entries) >= planCacheCap {
		type keyUses struct {
			k string
			u int64
		}
		all := make([]keyUses, 0, len(c.entries))
		for k, en := range c.entries {
			all = append(all, keyUses{k, en.uses.Load()})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].u != all[j].u {
				return all[i].u < all[j].u
			}
			return all[i].k < all[j].k
		})
		drop := planCacheCap / 8
		if drop < 1 {
			drop = 1
		}
		for i := 0; i < drop && i < len(all); i++ {
			delete(c.entries, all[i].k)
			c.evictions.Add(1)
		}
	}
	c.entries[key] = &planEntry{plan: p}
}

// notePlan records planning telemetry for one built plan (cached or
// transient).
func (c *planCache) notePlan(p *selectPlan) {
	if p.tables < 2 {
		return
	}
	c.joinPlans.Add(1)
	if p.reordered {
		c.reordered.Add(1)
	}
}

// clear drops every entry (generation invalidation).
func (c *planCache) clear() {
	c.mu.Lock()
	c.entries = nil
	c.mu.Unlock()
	c.invalidations.Add(1)
}

// PlannerStats is a snapshot of the engine's planner counters.
type PlannerStats struct {
	Hits          int64 // plan-cache hits
	Misses        int64 // plan-cache misses (plan built)
	Invalidations int64 // generation bumps + stale-entry drops
	Evictions     int64 // LFU evictions
	Entries       int64 // current cached plans
	JoinPlans     int64 // plans built covering >= 2 tables
	Reordered     int64 // join plans whose order differs from the SQL text
}

// PlannerStats returns the engine's planner counters.
func (e *Engine) PlannerStats() PlannerStats {
	c := &e.plans
	c.mu.RLock()
	entries := int64(len(c.entries))
	c.mu.RUnlock()
	return PlannerStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Entries:       entries,
		JoinPlans:     c.joinPlans.Load(),
		Reordered:     c.reordered.Load(),
	}
}

// InvalidatePlans drops every cached plan and bumps the plan
// generation, so in-flight builds against the old schema cannot be
// served afterwards. Runs on DDL, CREATE INDEX, and snapshot restores
// (which is how live-migration cutover lands tables); safe to call at
// any time.
func (e *Engine) InvalidatePlans() {
	e.planGen.Add(1)
	e.plans.clear()
}

// ---------------------------------------------------------------------
// Plan building
// ---------------------------------------------------------------------

// planFor returns a plan for st valid against v, consulting the cache.
// Plans built against the engine's current view are cached; plans built
// against a pinned historical view (or racing a concurrent publish) are
// transient.
func (e *Engine) planFor(st *SelectStmt, v *readView) (*selectPlan, []Value, error) {
	gen := e.planGen.Load()
	key, params, _ := canonSelect(st, false)
	current := v == e.view.Load()
	if p := e.plans.lookup(key, gen, v, current); p != nil {
		return p, params, nil
	}
	p, err := e.buildPlan(st, v, gen)
	if err != nil {
		return nil, nil, err
	}
	e.plans.notePlan(p)
	if current {
		e.plans.store(key, p)
	}
	return p, params, nil
}

// buildPlan compiles one SELECT against a view: normalization, conjunct
// analysis, access-path selection, join ordering, and output binding.
func (e *Engine) buildPlan(st *SelectStmt, v *readView, gen int64) (*selectPlan, error) {
	_, _, pst := canonSelect(st, true)

	// Textual table list.
	type tableRef struct {
		name, alias string
		tv          *tableView
	}
	refs := make([]tableRef, 0, 1+len(pst.Joins))
	addRef := func(name, alias string) error {
		tv, ok := v.tables[name]
		if !ok {
			return unknownTableError(name)
		}
		if alias == "" {
			alias = name
		}
		refs = append(refs, tableRef{name, alias, tv})
		return nil
	}
	if err := addRef(pst.Table, pst.Alias); err != nil {
		return nil, err
	}
	for _, j := range pst.Joins {
		if err := addRef(j.Table, j.Alias); err != nil {
			return nil, err
		}
	}
	n := len(refs)
	if n > 64 {
		return nil, fmt.Errorf("sqlmini: too many joined tables (%d)", n)
	}

	// Textual binder for conjunct classification.
	tb := &binder{}
	var slotTable []int
	for i, r := range refs {
		tb.addTable(r.alias, r.tv.t)
		for range r.tv.t.Cols {
			slotTable = append(slotTable, i)
		}
	}

	// Split and classify conjuncts from WHERE and every ON.
	var conjExprs []Expr
	splitConjuncts(pst.Where, &conjExprs)
	for _, j := range pst.Joins {
		splitConjuncts(j.On, &conjExprs)
	}
	var consts []Expr
	perTable := make([][]conjunct, n)
	var joinConjs []conjunct
	for _, ce := range conjExprs {
		c, err := classifyConjunct(ce, tb, slotTable)
		if err != nil {
			return nil, err
		}
		switch popcount(c.mask) {
		case 0:
			consts = append(consts, c.expr)
		case 1:
			ti := lowestBit(c.mask)
			perTable[ti] = append(perTable[ti], c)
		default:
			joinConjs = append(joinConjs, c)
		}
	}

	// Access path and post-pushdown cardinality per textual table.
	type accessChoice struct {
		kind    accessKind
		keyCol  int
		keyExpr Expr
		rest    []conjunct
	}
	access := make([]accessChoice, n)
	cards := make([]float64, n)
	for i, r := range refs {
		t := r.tv.t
		choice := accessChoice{kind: accessFull}
		consumed := -1
		// Prefer a primary-key probe, then a secondary-index probe.
		for ci, cj := range perTable[i] {
			if cj.kind == predEqConst && t.pkCol >= 0 && cj.constCol == t.pkCol {
				choice = accessChoice{kind: accessPkEq, keyCol: t.pkCol, keyExpr: cj.constVal}
				consumed = ci
				break
			}
		}
		if consumed < 0 {
			for ci, cj := range perTable[i] {
				if cj.kind != predEqConst {
					continue
				}
				indexed := false
				for _, idx := range r.tv.indexes {
					if idx.col == cj.constCol {
						indexed = true
						break
					}
				}
				if indexed {
					choice = accessChoice{kind: accessIdxEq, keyCol: cj.constCol, keyExpr: cj.constVal}
					consumed = ci
					break
				}
			}
		}
		card := float64(r.tv.rows.n)
		if card < 1 {
			card = 1
		}
		for ci, cj := range perTable[i] {
			card *= conjunctSelectivity(cj, r.tv)
			if ci != consumed {
				choice.rest = append(choice.rest, cj)
			}
		}
		if card < 1e-3 {
			card = 1e-3
		}
		access[i] = choice
		cards[i] = card
	}

	// Equi edges for the cost model.
	var edges []equiEdge
	for _, jc := range joinConjs {
		if !jc.isEquiJoin {
			continue
		}
		ndvL := refs[jc.eqLTable].tv.ndvEstimate(jc.eqLCol)
		ndvR := refs[jc.eqRTable].tv.ndvEstimate(jc.eqRCol)
		ndv := ndvL
		if ndvR > ndv {
			ndv = ndvR
		}
		if ndv < 1 {
			ndv = 1
		}
		edges = append(edges, equiEdge{a: jc.eqLTable, b: jc.eqRTable, sel: 1 / ndv})
	}

	order := chooseJoinOrder(cards, edges)

	p := &selectPlan{
		gen:    gen,
		tables: n,
		consts: consts,
		limit:  pst.Limit,
	}
	for pos, ti := range order {
		if ti != pos {
			p.reordered = true
		}
	}

	// Physical layout: binder over tables in chosen order, plus the base
	// offset of each textual table within it.
	pb := &binder{}
	physBase := make([]int, n)
	for _, ti := range order {
		physBase[ti] = len(pb.slots)
		pb.addTable(refs[ti].alias, refs[ti].tv.t)
	}

	// Scans in physical order, with pushed-down filters bound to the
	// single table's own row layout.
	for _, ti := range order {
		r := refs[ti]
		ac := access[ti]
		s := scanNode{
			table:    r.name,
			alias:    r.alias,
			t:        r.tv.t,
			access:   ac.kind,
			keyCol:   ac.keyCol,
			keyExpr:  ac.keyExpr,
			planRows: r.tv.rows.n,
		}
		lb := &binder{}
		lb.addTable(r.alias, r.tv.t)
		for _, cj := range ac.rest {
			be, err := bind(cj.expr, lb)
			if err != nil {
				return nil, err
			}
			s.filter = append(s.filter, be)
		}
		p.scans = append(p.scans, s)
	}

	// Join steps: assign every multi-table conjunct to the first step
	// where all its tables are placed; equi conjuncts linking the new
	// table to the prefix become hash keys, the rest are residuals bound
	// to the prefix+right physical layout.
	assigned := make([]bool, len(joinConjs))
	placed := uint64(1) << uint(order[0])
	for pos := 1; pos < n; pos++ {
		right := order[pos]
		rightBit := uint64(1) << uint(right)
		nowPlaced := placed | rightBit
		jn := joinNode{}
		for ci := range joinConjs {
			if assigned[ci] {
				continue
			}
			jc := &joinConjs[ci]
			if jc.mask&^nowPlaced != 0 {
				continue // references a table not yet placed
			}
			if jc.isEquiJoin && jc.mask&rightBit != 0 {
				var leftTable, leftCol, rightCol int
				if jc.eqRTable == right {
					leftTable, leftCol, rightCol = jc.eqLTable, jc.eqLCol, jc.eqRCol
				} else {
					leftTable, leftCol, rightCol = jc.eqRTable, jc.eqRCol, jc.eqLCol
				}
				jn.leftKeys = append(jn.leftKeys, physBase[leftTable]+leftCol)
				jn.rightKeys = append(jn.rightKeys, rightCol)
				assigned[ci] = true
				continue
			}
			be, err := bind(jc.expr, pb)
			if err != nil {
				return nil, err
			}
			jn.extra = append(jn.extra, be)
			assigned[ci] = true
		}
		p.joins = append(p.joins, jn)
		placed = nowPlaced
	}

	// Output expressions. SELECT * expands in textual table order (the
	// user-visible contract), resolving into the physical layout.
	for _, it := range pst.Items {
		if it.Star {
			for ti := 0; ti < n; ti++ {
				t := refs[ti].tv.t
				for col := range t.Cols {
					p.outExprs = append(p.outExprs, &boundCol{idx: physBase[ti] + col, name: t.Cols[col].Name})
					p.outNames = append(p.outNames, t.Cols[col].Name)
				}
			}
			continue
		}
		be, err := bind(it.Expr, pb)
		if err != nil {
			return nil, err
		}
		p.outExprs = append(p.outExprs, be)
		name := it.Alias
		if name == "" {
			if bc, ok := be.(*boundCol); ok {
				name = bc.name
			} else {
				name = fmt.Sprintf("col%d", len(p.outNames)+1)
			}
		}
		p.outNames = append(p.outNames, name)
	}

	// Aggregates, grouping, HAVING.
	for _, oe := range p.outExprs {
		collectAggs(oe, &p.aggs)
	}
	if pst.Having != nil {
		h, err := bind(pst.Having, pb)
		if err != nil {
			return nil, err
		}
		p.having = h
		collectAggs(p.having, &p.aggs)
	}
	for _, g := range pst.GroupBy {
		bg, err := bind(g, pb)
		if err != nil {
			return nil, err
		}
		p.groupBy = append(p.groupBy, bg)
	}
	p.distinct = pst.Distinct

	// ORDER BY: output column by name, else bound input-row expression.
	for _, ob := range pst.OrderBy {
		spec := orderSpec{outIdx: -1, desc: ob.Desc}
		if cr, ok := ob.Expr.(*ColRef); ok && cr.Table == "" {
			for i, on := range p.outNames {
				if on == cr.Column {
					spec.outIdx = i
					break
				}
			}
		}
		if spec.outIdx < 0 {
			be, err := bind(ob.Expr, pb)
			if err != nil {
				return nil, fmt.Errorf("sqlmini: ORDER BY: %w", err)
			}
			var hasAgg []*Agg
			collectAggs(be, &hasAgg)
			if len(hasAgg) > 0 {
				return nil, fmt.Errorf("sqlmini: ORDER BY aggregate must be a named output column")
			}
			spec.expr = be
		}
		p.orderBy = append(p.orderBy, spec)
	}
	kinds := make([]Kind, len(pb.slots))
	for i, sl := range pb.slots {
		kinds[i] = sl.table.Cols[sl.col].Type
	}
	p.sink = p.chooseSink(kinds)
	return p, nil
}

func lowestBit(m uint64) int {
	for i := 0; i < 64; i++ {
		if m&(1<<uint(i)) != 0 {
			return i
		}
	}
	return 0
}

// ---------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------

// emitFn consumes one row of a pipeline stage and reports whether the
// stage should go on producing. The row may be a scratch row that the
// stage rewrites once emit returns: a consumer that keeps it copies it.
type emitFn func(r Row) (bool, error)

// run executes the plan against one immutable view. Every stage but the
// last is materialized; the last one (the only scan, or the last join's
// probe loop) streams its rows into the plan's sink (sink.go). The plan
// itself is read-only here: any number of goroutines may run the same
// plan concurrently.
func (p *selectPlan) run(ctx context.Context, v *readView, params []Value, res *Result) error {
	res.Columns = p.outNames
	sink := p.newSink(ctx, params)
	ec := &evalCtx{params: params}
	for _, cexpr := range p.consts {
		cv, err := eval(cexpr, ec)
		if err != nil {
			return err
		}
		if !cv.Truth() {
			return sink.finish(res)
		}
	}
	last := len(p.scans) - 1
	var prefix []Row
	for i := range p.scans {
		s := &p.scans[i]
		tv, ok := v.tables[s.table]
		if !ok {
			return unknownTableError(s.table)
		}
		var err error
		switch {
		case last == 0:
			err = s.stream(ctx, tv, params, res, sink.push)
		case i == 0:
			prefix, err = s.rows(ctx, tv, params, res)
		default:
			var rows, joined []Row
			if rows, err = s.rows(ctx, tv, params, res); err != nil {
				return err
			}
			emit := sink.push
			if i < last {
				emit = func(r Row) (bool, error) {
					joined = append(joined, slices.Clone(r))
					return true, nil
				}
			}
			err = p.joins[i-1].join(ctx, prefix, rows, params, res, emit)
			prefix = joined
		}
		if err != nil {
			return err
		}
	}
	return sink.finish(res)
}

// rows materializes the scan as a join input. The returned slice may
// alias the view's row storage; callers never mutate it.
func (s *scanNode) rows(ctx context.Context, tv *tableView, params []Value, res *Result) ([]Row, error) {
	if s.access == accessFull && len(s.filter) == 0 {
		res.Scanned += int64(tv.rows.n)
		return tv.rows.flat(), nil
	}
	var out []Row
	err := s.stream(ctx, tv, params, res, func(r Row) (bool, error) {
		out = append(out, r)
		return true, nil
	})
	return out, err
}

// stream passes the table's rows that satisfy every pushed-down conjunct
// to emit, in storage order, until emit declines more. Scanned counts
// the rows examined.
func (s *scanNode) stream(ctx context.Context, tv *tableView, params []Value, res *Result, emit emitFn) error {
	ec := &evalCtx{params: params}
	offer := func(r Row) (bool, error) {
		keep, err := s.keep(ec, r)
		if err != nil || !keep {
			return true, err
		}
		return emit(r)
	}
	switch s.access {
	case accessPkEq:
		res.Scanned++
		kv, err := eval(s.keyExpr, ec)
		if err != nil {
			return err
		}
		if kv.IsNull() {
			return nil // pk = NULL matches nothing
		}
		idx, hit := tv.pk.get(kv.key())
		if !hit || idx >= tv.rows.n {
			return nil
		}
		_, err = offer(tv.rows.at(idx))
		return err
	case accessIdxEq:
		kv, err := eval(s.keyExpr, ec)
		if err != nil {
			return err
		}
		want, ok := kv.typedKey()
		if !ok {
			return nil // col = NULL matches nothing
		}
		matches, indexed := tv.lookupIndex(s.keyCol, kv)
		if !indexed {
			// The view predates the index (pinned snapshot): scan,
			// applying the consumed equality with the index's key
			// semantics.
			return streamRows(ctx, tv, res, func(r Row) (bool, error) {
				if got, ok := r[s.keyCol].typedKey(); !ok || got != want {
					return true, nil
				}
				return offer(r)
			})
		}
		for i, ri := range matches {
			if i%cancelCheckRows == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			more, err := offer(tv.rows.at(ri))
			if err != nil {
				return err
			}
			if !more {
				res.Scanned += int64(i + 1)
				return nil
			}
		}
		res.Scanned += int64(len(matches))
		return nil
	default:
		return streamRows(ctx, tv, res, offer)
	}
}

// streamRows passes every row of the view to offer in storage order
// until offer declines more, counting the rows examined.
func streamRows(ctx context.Context, tv *tableView, res *Result, offer emitFn) error {
	for ci := range tv.rows.chunks {
		if err := checkCancel(ctx, ci); err != nil {
			return err
		}
		rows := tv.rows.chunk(ci)
		for i, r := range rows {
			more, err := offer(r)
			if err != nil {
				return err
			}
			if !more {
				res.Scanned += int64(i + 1)
				return nil
			}
		}
		res.Scanned += int64(len(rows))
	}
	return nil
}

// checkCancel polls the context at chunk ci when a whole
// cancelCheckRows stride of rows starts there.
func checkCancel(ctx context.Context, ci int) error {
	if ci%(cancelCheckRows/chunkRows) != 0 {
		return nil
	}
	return ctx.Err()
}

// keep reports whether row r passes every pushed-down conjunct.
func (s *scanNode) keep(ec *evalCtx, r Row) (bool, error) {
	ec.row = r
	for _, f := range s.filter {
		fv, err := eval(f, ec)
		if err != nil {
			return false, err
		}
		if !fv.Truth() {
			return false, nil
		}
	}
	return true, nil
}

// compositeKey renders the hash key of a multi-column equi-join: each
// column's key() with its length, so no text value can forge a
// boundary. ok is false when any column is NULL, which equals nothing.
func compositeKey(r Row, cols []int) (string, bool) {
	var sb strings.Builder
	for _, c := range cols {
		if r[c].IsNull() {
			return "", false
		}
		k := r[c].key()
		sb.WriteString(strconv.Itoa(len(k)))
		sb.WriteByte(':')
		sb.WriteString(k)
	}
	return sb.String(), true
}

// join combines the accumulated prefix rows with one table's rows and
// passes every joined row that satisfies the residual conjuncts to emit,
// until emit declines more. Each candidate is assembled in one scratch
// row, which never aliases an input row. A single-column equi-join
// hashes typed keys, a multi-column one composite string keys; NULL keys
// match nothing, as under "=". Both build and probe loops observe
// context cancellation.
func (j *joinNode) join(ctx context.Context, left, right []Row, params []Value, res *Result, emit emitFn) error {
	ec := &evalCtx{params: params}
	var scratch Row
	candidate := func(lr, rr Row) (bool, error) {
		scratch = append(append(scratch[:0], lr...), rr...)
		ec.row = scratch
		for _, ex := range j.extra {
			v, err := eval(ex, ec)
			if err != nil || !v.Truth() {
				return true, err
			}
		}
		return emit(scratch)
	}
	switch len(j.leftKeys) {
	case 0:
		// Nested loop: no equi keys link this table to the prefix.
		// Scanned counts evaluated pairs, as the pre-planner executor did.
		for _, lr := range left {
			for _, rr := range right {
				if res.Scanned%cancelCheckRows == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				res.Scanned++
				more, err := candidate(lr, rr)
				if err != nil || !more {
					return err
				}
			}
		}
		return nil
	case 1:
		lc, rc := j.leftKeys[0], j.rightKeys[0]
		return hashJoin(ctx, left, right,
			func(r Row) (valueKey, bool) { return r[lc].typedKey() },
			func(r Row) (valueKey, bool) { return r[rc].typedKey() },
			candidate)
	default:
		return hashJoin(ctx, left, right,
			func(r Row) (string, bool) { return compositeKey(r, j.leftKeys) },
			func(r Row) (string, bool) { return compositeKey(r, j.rightKeys) },
			candidate)
	}
}

// hashJoin hashes the smaller input (the table's rows on a tie) and
// probes it with the other, passing each matching (prefix row, table
// row) pair to emit until emit declines more. The output follows the
// probe side, each probe row's matches in build-side order: a
// deterministic function of the input data. Build rows are chained per
// key back to front so that every chain lists them in input order; rows
// whose key is not ok (NULL) are neither built nor probed.
func hashJoin[K comparable](ctx context.Context, left, right []Row, leftKey, rightKey func(Row) (K, bool), emit func(lr, rr Row) (bool, error)) error {
	buildRight := len(right) <= len(left)
	build, probe, buildKey, probeKey := left, right, leftKey, rightKey
	if buildRight {
		build, probe, buildKey, probeKey = right, left, rightKey, leftKey
	}
	head := make(map[K]int, len(build)) // key -> 1 + first build row of its chain
	next := make([]int, len(build))     // build row -> 1 + next row of its chain, 0 at the end
	for i := len(build) - 1; i >= 0; i-- {
		if i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		k, ok := buildKey(build[i])
		if !ok {
			continue
		}
		next[i] = head[k]
		head[k] = i + 1
	}
	for i, pr := range probe {
		if i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		k, ok := probeKey(pr)
		if !ok {
			continue
		}
		for b := head[k]; b != 0; b = next[b-1] {
			lr, rr := build[b-1], pr
			if buildRight {
				lr, rr = pr, build[b-1]
			}
			more, err := emit(lr, rr)
			if err != nil || !more {
				return err
			}
		}
	}
	return nil
}
