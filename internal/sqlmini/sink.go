package sqlmini

//qcpa:deterministic — the sink decides which rows a SELECT returns and
// in what order; every replica must return the same result.

// Streaming sinks (DESIGN.md §13). The last stage of a plan — the only
// scan, or the last join's probe loop — pushes its rows into one of
// three sinks, chosen once per plan by chooseSink:
//
//   - collect keeps every row and finishes them as a whole (aggregation,
//     HAVING, DISTINCT, ORDER BY, LIMIT). It serves GROUP BY, DISTINCT,
//     queries without LIMIT, and every plan whose skipped work could
//     fail.
//   - topK serves ORDER BY … LIMIT k without grouping or DISTINCT: a
//     bounded heap ordered by (sort keys, arrival), which keeps exactly
//     the rows a stable sort followed by truncation keeps. It evaluates
//     the sort keys of every row but projects only the rows that enter
//     the heap.
//   - limit serves LIMIT k without ORDER BY, grouping or DISTINCT: it
//     projects rows as they arrive and stops the last stage after k.
//
// A query must return the same rows and the same error whichever sink
// runs it. A sink that skips work therefore may skip only expressions
// that cannot fail at runtime (mayFail).

import (
	"context"
	"slices"
	"sort"
	"strings"
)

// sinkKind selects a plan's sink.
type sinkKind uint8

const (
	sinkCollect sinkKind = iota
	sinkTopK
	sinkLimit
)

// rowSink consumes the rows of a plan's last stage.
type rowSink interface {
	// push offers one row and reports whether the stage should go on.
	// The row may be a scratch row: a sink that keeps it copies it.
	push(r Row) (bool, error)
	// finish stores the result rows into res.
	finish(res *Result) error
}

// chooseSink picks the plan's sink at plan time. kinds are the column
// kinds of the plan's joined row layout.
func (p *selectPlan) chooseSink(kinds []Kind) sinkKind {
	if p.limit < 0 || p.distinct || len(p.aggs) > 0 || len(p.groupBy) > 0 || anyMayFail(p.outExprs, kinds) {
		return sinkCollect
	}
	if len(p.orderBy) > 0 {
		return sinkTopK
	}
	// The limit sink stops the last stage early, skipping its filters
	// on the remaining rows too.
	streamed := p.scans[0].filter
	if n := len(p.joins); n > 0 {
		streamed = p.joins[n-1].extra
	}
	if anyMayFail(streamed, kinds) {
		return sinkCollect
	}
	return sinkLimit
}

func (p *selectPlan) newSink(ctx context.Context, params []Value) rowSink {
	switch p.sink {
	case sinkTopK:
		s := &topKSink{p: p, ec: evalCtx{params: params}, keys: make([]Value, len(p.orderBy))}
		for _, spec := range p.orderBy {
			ke := spec.expr
			if spec.outIdx >= 0 {
				ke = p.outExprs[spec.outIdx]
			}
			s.keyExprs = append(s.keyExprs, ke)
		}
		return s
	case sinkLimit:
		return &limitSink{p: p, ec: evalCtx{params: params}}
	}
	return &collectSink{p: p, ctx: ctx, params: params, clone: len(p.scans) > 1}
}

// anyMayFail reports whether evaluating any of exprs can return an error.
func anyMayFail(exprs []Expr, kinds []Kind) bool {
	for _, e := range exprs {
		if mayFail(e, kinds) {
			return true
		}
	}
	return false
}

// mayFail reports whether evaluating the bound expression e over a row
// with the given column kinds can return an error. Stored values always
// match their column's kind or are NULL, so only arithmetic and unary
// minus on an operand that may be text can fail, besides aggregates
// outside aggregation and nodes eval does not know. A parameter's kind
// varies between executions of one cached plan, so it counts as
// possibly text.
func mayFail(e Expr, kinds []Kind) bool {
	switch x := e.(type) {
	case *Lit, *boundParam, *boundCol:
		return false
	case *UnOp:
		switch x.Op {
		case "NOT":
			return mayFail(x.E, kinds)
		case "-":
			return mayFail(x.E, kinds) || !numeric(x.E, kinds)
		}
	case *BinOp:
		if mayFail(x.L, kinds) || mayFail(x.R, kinds) {
			return true
		}
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE":
			return false
		case "+", "-", "*", "/":
			return !numeric(x.L, kinds) || !numeric(x.R, kinds)
		}
	case *Between:
		return mayFail(x.E, kinds) || mayFail(x.Lo, kinds) || mayFail(x.Hi, kinds)
	case *InList:
		return mayFail(x.E, kinds) || anyMayFail(x.List, kinds)
	case *IsNull:
		return mayFail(x.E, kinds)
	}
	return true
}

// numeric reports whether e, when it evaluates without error, yields a
// number or NULL. Every operator result is one (comparisons and logic
// yield 0/1); parameters may be text.
func numeric(e Expr, kinds []Kind) bool {
	switch x := e.(type) {
	case *Lit:
		return x.V.K != KindText
	case *boundCol:
		return kinds[x.idx] != KindText
	case *UnOp, *BinOp, *Between, *InList, *IsNull:
		return true
	}
	return false
}

// project evaluates the output expressions over one input row into a
// fresh row.
func (p *selectPlan) project(ec *evalCtx, r Row) (Row, error) {
	ec.row = r
	out := make(Row, len(p.outExprs))
	for i, oe := range p.outExprs {
		v, err := eval(oe, ec)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------
// limit
// ---------------------------------------------------------------------

// limitSink projects the first k rows and then stops the stage.
type limitSink struct {
	p    *selectPlan
	ec   evalCtx
	rows []Row
}

func (s *limitSink) push(r Row) (bool, error) {
	if len(s.rows) >= s.p.limit {
		return false, nil // LIMIT 0
	}
	out, err := s.p.project(&s.ec, r)
	if err != nil {
		return false, err
	}
	s.rows = append(s.rows, out)
	return len(s.rows) < s.p.limit, nil
}

func (s *limitSink) finish(res *Result) error {
	res.Rows = s.rows
	return nil
}

// ---------------------------------------------------------------------
// topK
// ---------------------------------------------------------------------

// topKEntry is one retained row: its sort keys, arrival sequence, and
// projected output.
type topKEntry struct {
	keys []Value
	seq  int
	row  Row
}

// topKSink keeps the k rows that sort first by (sort keys, arrival) in
// a max-heap whose root is the retained row that sorts last.
type topKSink struct {
	p        *selectPlan
	ec       evalCtx
	keyExprs []Expr  // per ORDER BY item, its expression over the input row
	keys     []Value // sort keys of the row being pushed
	heap     []topKEntry
	seq      int
	// err is the first sort-key error. The collect path evaluates sort
	// keys only after the last stage has run to completion, so a later
	// error of that stage takes precedence: err is reported by finish.
	err error
}

func (s *topKSink) push(r Row) (bool, error) {
	if s.err != nil {
		return true, nil
	}
	s.ec.row = r
	for i, ke := range s.keyExprs {
		v, err := eval(ke, &s.ec)
		if err != nil {
			s.err = err
			return true, nil
		}
		s.keys[i] = v
	}
	seq := s.seq
	s.seq++
	k := s.p.limit
	full := len(s.heap) == k
	if full && (k == 0 || s.cmp(s.keys, s.heap[0].keys) >= 0) {
		return true, nil // an equal key keeps the earlier row
	}
	out, err := s.p.project(&s.ec, r)
	if err != nil {
		return false, err
	}
	if !full {
		s.heap = append(s.heap, topKEntry{keys: slices.Clone(s.keys), seq: seq, row: out})
		if len(s.heap) == k {
			for i := k/2 - 1; i >= 0; i-- {
				s.down(i)
			}
		}
		return true, nil
	}
	root := &s.heap[0]
	copy(root.keys, s.keys)
	root.seq, root.row = seq, out
	s.down(0)
	return true, nil
}

func (s *topKSink) finish(res *Result) error {
	if s.err != nil {
		return s.err
	}
	h := s.heap
	sort.Slice(h, func(i, j int) bool { return s.after(&h[j], &h[i]) })
	for i := range h {
		res.Rows = append(res.Rows, h[i].row)
	}
	return nil
}

// cmp orders two sort-key tuples as ORDER BY does.
func (s *topKSink) cmp(a, b []Value) int {
	for i, spec := range s.p.orderBy {
		if c := Compare(a[i], b[i]); c != 0 {
			if spec.desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// after reports whether entry a sorts after entry b.
func (s *topKSink) after(a, b *topKEntry) bool {
	if c := s.cmp(a.keys, b.keys); c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

// down restores the heap order below slot i.
func (s *topKSink) down(i int) {
	h := s.heap
	for {
		m := i
		if c := 2*i + 1; c < len(h) && s.after(&h[c], &h[m]) {
			m = c
		}
		if c := 2*i + 2; c < len(h) && s.after(&h[c], &h[m]) {
			m = c
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// ---------------------------------------------------------------------
// collect
// ---------------------------------------------------------------------

// collectSink keeps every row, then projects, aggregates, deduplicates,
// orders and limits them as a whole.
type collectSink struct {
	p      *selectPlan
	ctx    context.Context
	params []Value
	clone  bool // pushed rows are a join's scratch rows
	rows   []Row
}

func (s *collectSink) push(r Row) (bool, error) {
	if s.clone {
		r = slices.Clone(r)
	}
	s.rows = append(s.rows, r)
	return true, nil
}

func (s *collectSink) finish(res *Result) error {
	p, rows, params := s.p, s.rows, s.params
	groupMode := len(p.aggs) > 0 || len(p.groupBy) > 0

	var outRows []Row
	var orderInputs []Row // input (or group sample) row per output row
	if groupMode {
		groups, order, err := groupRows(rows, p.groupBy, p.aggs, params)
		if err != nil {
			return err
		}
		for _, key := range order {
			g := groups[key]
			gctx := &evalCtx{row: g.sample, aggs: g.aggValues(), params: params}
			if p.having != nil {
				hv, err := eval(p.having, gctx)
				if err != nil {
					return err
				}
				if !hv.Truth() {
					continue
				}
			}
			or, err := p.project(gctx, g.sample)
			if err != nil {
				return err
			}
			outRows = append(outRows, or)
			orderInputs = append(orderInputs, g.sample)
		}
	} else {
		ec := &evalCtx{params: params}
		for ri, r := range rows {
			if ri%cancelCheckRows == 0 {
				if err := s.ctx.Err(); err != nil {
					return err
				}
			}
			or, err := p.project(ec, r)
			if err != nil {
				return err
			}
			outRows = append(outRows, or)
			orderInputs = append(orderInputs, r)
		}
	}

	if p.distinct {
		seen := make(map[string]bool, len(outRows))
		kept := outRows[:0]
		keptIn := orderInputs[:0]
		for i, r := range outRows {
			var sb strings.Builder
			for _, v := range r {
				sb.WriteString(v.key())
				sb.WriteByte('|')
			}
			k := sb.String()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, r)
				keptIn = append(keptIn, orderInputs[i])
			}
		}
		outRows = kept
		orderInputs = keptIn
	}

	if len(p.orderBy) > 0 {
		type keyed struct {
			row  Row
			keys []Value
		}
		ks := make([]keyed, len(outRows))
		ec := &evalCtx{params: params}
		for i, r := range outRows {
			ks[i] = keyed{row: r, keys: make([]Value, len(p.orderBy))}
			for oi, spec := range p.orderBy {
				if spec.outIdx >= 0 {
					ks[i].keys[oi] = r[spec.outIdx]
					continue
				}
				ec.row = orderInputs[i]
				v, err := eval(spec.expr, ec)
				if err != nil {
					return err
				}
				ks[i].keys[oi] = v
			}
		}
		sort.SliceStable(ks, func(i, j int) bool {
			for oi, spec := range p.orderBy {
				c := Compare(ks[i].keys[oi], ks[j].keys[oi])
				if c != 0 {
					if spec.desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		for i := range ks {
			outRows[i] = ks[i].row
		}
	}

	if p.limit >= 0 && len(outRows) > p.limit {
		outRows = outRows[:p.limit]
	}
	res.Rows = outRows
	return nil
}
