package sqlmini

import (
	"context"
	"fmt"
	"time"
)

// This file implements copy-on-write snapshot reads. The engine keeps,
// next to its mutable tables, an immutable "read view": an
// epoch-versioned map of per-table snapshots published atomically after
// every committed mutation (or once per group-committed round, see
// ApplyRound). SELECT executes lock-free against the latest published
// view; writers clone shared state on first touch per epoch, so a
// published snapshot is never mutated after it becomes visible.
//
// Sharing discipline (the whole correctness argument lives here; the
// storage units are in store.go):
//
//   - tableView.rows copies the table's chunk directory header. INSERT
//     writes the next slot of the last chunk, or appends a new chunk to
//     the directory: both lie past every view's own row count and
//     directory length, so appends clone nothing. Rewriting an existing
//     slot (UPDATE) first clones that one chunk, and the directory once,
//     unless they were allocated after the last view was cut.
//   - Row contents are shared across epochs, so UPDATE copies the
//     touched row before assigning into it (never writes through a
//     possibly-published Row).
//   - tableView.pk and each secondary index copy the table's shard
//     arrays. A write clones only the shards it changes, once per
//     epoch; UPDATE touches the pk only when the pk value changes, and
//     an index only when its column's value does. Index row lists grow
//     by append (past every older copy's length) or are replaced.
//   - DELETE compacts, so it rebuilds the table into fresh units.
//   - Schema (Cols, colIdx, pkCol) is immutable after CREATE TABLE, so
//     views reference the live *Table for binding.

// readView is one immutable published snapshot of the whole engine.
//
//qcpa:published immutable after e.view.Store; readers access it lock-free
type readView struct {
	epoch  int64
	tables map[string]*tableView
}

// tableView is the immutable per-table half of a readView.
//
//qcpa:published immutable once reachable from a published readView
type tableView struct {
	t       *Table // schema only — never touch t.rows/t.pk through this
	rows    rowStore
	pk      keyMap[int]
	indexes []secondaryIndex
	stats   tableStats // lazily filled planner statistics (tablestats.go)
}

// emptyView backs reads against an engine that has never published
// (zero-value engines constructed without New).
var emptyView = &readView{tables: map[string]*tableView{}}

// loadView returns the latest published view.
func (e *Engine) loadView() *readView {
	if v := e.view.Load(); v != nil {
		return v
	}
	return emptyView
}

// newTableView snapshots a table's current state. Caller holds e.mu.
func newTableView(t *Table) *tableView {
	tv := &tableView{t: t, rows: t.rows, pk: t.pk}
	if len(t.indexes) > 0 {
		tv.indexes = append([]secondaryIndex(nil), t.indexes...)
	}
	return tv
}

// publishLocked installs a new read view covering every mutation since
// the last publish, bumping the epoch. No-op when nothing changed.
// Caller holds e.mu (write).
func (e *Engine) publishLocked() {
	if !e.dirty {
		return
	}
	e.dirty = false
	e.epochSeq++
	nv := &readView{epoch: e.epochSeq, tables: make(map[string]*tableView, len(e.tables))}
	for name, t := range e.tables {
		tv := t.view
		if tv == nil {
			tv = newTableView(t)
			t.view = tv
			t.gen++ // every unit the view reaches is now shared
		}
		nv.tables[name] = tv
	}
	e.view.Store(nv)
}

// Epoch returns the engine's current published epoch. It starts at 0
// for an empty engine and advances by one per published view (one per
// statement outside rounds, one per round inside ApplyRound).
func (e *Engine) Epoch() int64 {
	return e.loadView().epoch
}

// View is a pinned, immutable snapshot of the engine at one epoch.
// Queries against it see exactly the state at acquisition time, no
// matter how many rounds commit — or which tables migrate away —
// afterwards.
type View struct {
	v *readView
}

// AcquireView pins the latest published snapshot.
func (e *Engine) AcquireView() View {
	return View{v: e.loadView()}
}

// Epoch returns the pinned epoch.
func (v View) Epoch() int64 {
	if v.v == nil {
		return 0
	}
	return v.v.epoch
}

// QueryView runs one SELECT against a pinned view.
func (e *Engine) QueryView(v View, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlmini: QueryView requires SELECT, got %T", st)
	}
	rv := v.v
	if rv == nil {
		rv = emptyView
	}
	return e.execSelect(context.Background(), sel, rv)
}

// RoundResult is the per-statement outcome of ApplyRound.
type RoundResult struct {
	Affected int
	Scanned  int64
	Duration time.Duration
	Err      error
}

// ApplyRound applies an ordered batch of update statements under one
// write-lock hold and publishes exactly ONE new read epoch afterwards,
// so concurrent readers observe either none or all of the round — never
// a prefix. This is the engine half of the cluster's group commit: the
// round's order is fixed by the dispatcher, and a failed statement does
// not stop the rest (replicas must stay in lockstep; divergence is
// handled above by checksums and quarantine).
func (e *Engine) ApplyRound(stmts []Statement) []RoundResult {
	out := make([]RoundResult, len(stmts))
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	for i, st := range stmts {
		start := time.Now()
		if err := e.checkFault(); err != nil {
			out[i].Err = err
			out[i].Duration = time.Since(start)
			continue
		}
		res, err := e.execWriteLocked(st)
		out[i].Duration = time.Since(start)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Affected = res.Affected
		out[i].Scanned = res.Scanned
	}
	return out
}

// execWriteLocked dispatches one non-SELECT statement. Caller holds
// e.mu (write) and is responsible for publishing afterwards.
func (e *Engine) execWriteLocked(st Statement) (*Result, error) {
	e.dirty = true
	switch s := st.(type) {
	case *InsertStmt:
		return e.execInsert(s)
	case *UpdateStmt:
		return e.execUpdate(s)
	case *DeleteStmt:
		return e.execDelete(s)
	case *CreateTableStmt:
		if _, dup := e.tables[s.Table]; dup {
			return nil, fmt.Errorf("sqlmini: table %q already exists", s.Table)
		}
		t, err := newTable(s.Table, s.Columns)
		if err != nil {
			return nil, err
		}
		e.tables[s.Table] = t
		e.InvalidatePlans()
		return &Result{}, nil
	case *DropTableStmt:
		if _, ok := e.tables[s.Table]; !ok {
			return nil, unknownTableError(s.Table)
		}
		delete(e.tables, s.Table)
		e.InvalidatePlans()
		return &Result{}, nil
	}
	return nil, fmt.Errorf("sqlmini: unsupported statement %T", st)
}
