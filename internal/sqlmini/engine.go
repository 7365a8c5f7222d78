package sqlmini

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Table is an in-memory row store with an optional primary-key hash
// index and any number of secondary hash indexes, all held in
// copy-on-write units (store.go).
type Table struct {
	Name    string
	Cols    []Column
	colIdx  map[string]int
	pkCol   int // -1 when no primary key
	rows    rowStore
	pk      keyMap[int] // pk key() -> row index
	indexes []secondaryIndex

	// Copy-on-write bookkeeping (see view.go and store.go): gen is the
	// generation new units are stamped with, advanced each time a view
	// is cut; view caches the tableView cut at the last publish (nil
	// once the table is touched in a new epoch).
	gen  uint64
	view *tableView
}

func newTable(name string, cols []Column) (*Table, error) {
	t := &Table{Name: name, Cols: cols, colIdx: make(map[string]int, len(cols)), pkCol: -1}
	for i, c := range cols {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("sqlmini: duplicate column %q in table %q", c.Name, name)
		}
		t.colIdx[c.Name] = i
		if c.PrimaryKey {
			if t.pkCol >= 0 {
				return nil, fmt.Errorf("sqlmini: table %q has multiple primary keys", name)
			}
			t.pkCol = i
		}
	}
	if t.pkCol >= 0 {
		t.pk = newKeyMap[int](0, t.gen)
	}
	return t, nil
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows.n }

// ColumnIndex returns the index of a column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// PrimaryKey returns the primary-key column name, or "".
func (t *Table) PrimaryKey() string {
	if t.pkCol < 0 {
		return ""
	}
	return t.Cols[t.pkCol].Name
}

// touch marks the table written in the current epoch, so the next
// publish cuts it a fresh view.
func (t *Table) touch() { t.view = nil }

// checkRow validates a row's arity and coerces its values in place to
// the column types.
func (t *Table) checkRow(r Row) error {
	if len(r) != len(t.Cols) {
		return fmt.Errorf("sqlmini: table %q expects %d values, got %d", t.Name, len(t.Cols), len(r))
	}
	for i := range r {
		v, err := coerce(r[i], t.Cols[i].Type)
		if err != nil {
			return fmt.Errorf("%w (column %q)", err, t.Cols[i].Name)
		}
		r[i] = v
	}
	return nil
}

// appendRow validates and stores one row (SQL INSERT), first owning the
// pk and index shards it lands in.
func (t *Table) appendRow(r Row) error {
	if err := t.checkRow(r); err != nil {
		return err
	}
	t.touch()
	if t.pkCol >= 0 {
		t.pk.own(r[t.pkCol].key(), t.gen)
	}
	for i := range t.indexes {
		x := &t.indexes[i]
		x.keys.own(r[x.col].key(), t.gen)
	}
	return t.storeOwned(r)
}

// bulkAppend validates and stores rows in order, stopping at the first
// invalid one. The directory and every shard are sized and owned once
// up front, so the per-row work is the insert alone. Rows are copied
// first when the caller keeps them.
func (t *Table) bulkAppend(rows []Row, copyRows bool) error {
	t.touch()
	t.reserve(len(rows))
	for _, r := range rows {
		if copyRows {
			r = append(make(Row, 0, len(r)), r...)
		}
		if err := t.checkRow(r); err != nil {
			return err
		}
		if err := t.storeOwned(r); err != nil {
			return err
		}
	}
	return nil
}

// reserve sizes and owns the directory and every shard for extra more
// rows. Secondary indexes get no size hint: their key count is the
// column's distinct values, not the row count.
func (t *Table) reserve(extra int) {
	t.rows.reserve(extra, t.gen)
	if t.pkCol >= 0 {
		t.pk.reserve(extra, t.gen)
	}
	for i := range t.indexes {
		t.indexes[i].keys.reserve(0, t.gen)
	}
}

// storeOwned stores a validated row; the caller owns every shard the
// row lands in (reserve, or appendRow per row).
func (t *Table) storeOwned(r Row) error {
	idx := t.rows.n
	if t.pkCol >= 0 {
		k := r[t.pkCol].key()
		m := t.pk.owned(k)
		if _, dup := m[k]; dup {
			return fmt.Errorf("sqlmini: duplicate primary key %s in table %q", r[t.pkCol], t.Name)
		}
		m[k] = idx
	}
	for i := range t.indexes {
		x := &t.indexes[i]
		k := r[x.col].key()
		addRowIndex(x.keys.owned(k), k, idx)
	}
	t.rows.append(r, t.gen)
	return nil
}

// replaceRow installs nr as row idx in place of old. changed marks the
// columns the statement assigned; only those can move a pk or index
// entry. Nothing is modified when the new pk value is taken, and
// nothing can fail after the first modification.
func (t *Table) replaceRow(idx int, old, nr Row, changed []bool) error {
	if t.pkCol >= 0 && changed[t.pkCol] {
		ok, nk := old[t.pkCol].key(), nr[t.pkCol].key()
		if nk != ok {
			if _, dup := t.pk.get(nk); dup {
				return fmt.Errorf("sqlmini: duplicate primary key %s", nr[t.pkCol])
			}
			delete(t.pk.own(ok, t.gen), ok)
			t.pk.own(nk, t.gen)[nk] = idx
		}
	}
	for i := range t.indexes {
		x := &t.indexes[i]
		if !changed[x.col] {
			continue
		}
		if ok, nk := old[x.col].key(), nr[x.col].key(); nk != ok {
			removeRowIndex(x.keys.own(ok, t.gen), ok, idx)
			addRowIndex(x.keys.own(nk, t.gen), nk, idx)
		}
	}
	t.touch()
	t.rows.set(idx, nr, t.gen)
	return nil
}

// reload replaces the table's contents with rows, already validated and
// pk-unique (DELETE's compaction), in fresh pre-sized units.
func (t *Table) reload(rows []Row) {
	t.touch()
	t.rows = rowStore{}
	if t.pkCol >= 0 {
		t.pk = newKeyMap[int](len(rows), t.gen)
	}
	for i := range t.indexes {
		t.indexes[i].keys = newKeyMap[[]int](0, t.gen)
	}
	t.rows.reserve(len(rows), t.gen)
	for _, r := range rows {
		_ = t.storeOwned(r) // rows came from the table: no duplicate keys
	}
}

// DataBytes approximates the stored size of the table in bytes (used by
// the allocation cost models).
func (t *Table) DataBytes() int64 {
	var per int64
	for _, c := range t.Cols {
		switch c.Type {
		case KindText:
			per += 24
		default:
			per += 8
		}
	}
	return per * int64(t.rows.n)
}

// Engine is an embedded single-node database instance. It is safe for
// concurrent use: SELECT runs lock-free against the latest published
// copy-on-write snapshot (see view.go), while writes take an exclusive
// lock (one writer at a time, mirroring the serial update application
// of the CDBS processing model) and publish a new read epoch on
// commit.
type Engine struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// view is the latest published read snapshot; epochSeq and dirty
	// (both guarded by mu) drive publication — see view.go.
	view     atomic.Pointer[readView]
	epochSeq int64
	dirty    bool
	// fault is the optional fault injector (nil when absent); see
	// fault.go. Checked once per statement at the top of
	// ExecStmtContext.
	fault atomic.Pointer[Fault]
	// plans caches bound SELECT plans per normalized statement shape;
	// planGen is the cache generation, bumped by InvalidatePlans so
	// plans built against a pre-DDL schema can never be served after
	// it. See plan.go. Lock order: e.mu before plans.mu.
	plans   planCache
	planGen atomic.Int64
}

// New returns an empty engine.
func New() *Engine {
	e := &Engine{tables: make(map[string]*Table)}
	e.view.Store(&readView{tables: map[string]*tableView{}})
	return e
}

// Result is the outcome of executing a statement.
type Result struct {
	// Columns are the output column names of a SELECT.
	Columns []string
	// Rows are the result rows of a SELECT.
	Rows []Row
	// Affected is the number of rows written by INSERT/UPDATE/DELETE.
	Affected int
	// Scanned counts the rows examined while executing; the cluster
	// layer uses it as the work measure of a request.
	Scanned int64
}

// Exec parses and executes one SQL statement.
func (e *Engine) Exec(sql string) (*Result, error) {
	return e.ExecContext(context.Background(), sql)
}

// ExecContext parses and executes one SQL statement under a context
// (see ExecStmtContext for cancellation semantics).
func (e *Engine) ExecContext(ctx context.Context, sql string) (*Result, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecStmtContext(ctx, st)
}

// ExecStmt executes a parsed statement (allowing callers to parse once
// and execute on many backends, as the cluster controller does).
func (e *Engine) ExecStmt(st Statement) (*Result, error) {
	return e.ExecStmtContext(context.Background(), st)
}

// ExecStmtContext executes a parsed statement under a context. Long
// SELECT scans observe cancellation between row batches and return
// ctx.Err(); they run lock-free against the latest published snapshot
// and never block (or are blocked by) writers. Writes check the
// context only before starting: once an update begins applying it runs
// to completion, because the cluster's ROWA replicas apply updates in
// a fixed global order and a mid-write abort on one replica would
// diverge the others. Each standalone write publishes its own read
// epoch; group-committed batches publish once per round (ApplyRound).
func (e *Engine) ExecStmtContext(ctx context.Context, st Statement) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := e.checkFault(); err != nil {
		return nil, err
	}
	if s, ok := st.(*SelectStmt); ok {
		return e.execSelect(ctx, s, e.loadView())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	return e.execWriteLocked(st)
}

// Table returns the named table for bulk operations, or nil.
func (e *Engine) Table(name string) *Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[name]
}

// Tables returns the table names in sorted order.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateTable creates a table directly (bulk-load path).
func (e *Engine) CreateTable(name string, cols []Column) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.tables[name]; dup {
		return fmt.Errorf("sqlmini: table %q already exists", name)
	}
	t, err := newTable(name, cols)
	if err != nil {
		return err
	}
	e.tables[name] = t
	e.dirty = true
	e.InvalidatePlans()
	e.publishLocked()
	return nil
}

// BulkInsert appends rows without going through SQL (the cluster's
// data-loading path). Rows are validated and indexed like SQL inserts;
// the whole batch becomes readable in one published epoch.
func (e *Engine) BulkInsert(table string, rows []Row) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[table]
	if !ok {
		return unknownTableError(table)
	}
	defer e.publishLocked()
	e.dirty = true
	return t.bulkAppend(rows, true)
}

// DataBytes approximates the total stored bytes across all tables.
func (e *Engine) DataBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var total int64
	for _, t := range e.tables {
		total += t.DataBytes()
	}
	return total
}
