package sqlmini

import (
	"errors"
	"fmt"
)

// ErrUnknownTable is the sentinel wrapped by every unknown-table
// statement error. The cluster's read path matches it (IsMissingTable)
// to tell a stale route — the table was dropped by a live-migration
// cutover after the read was scheduled — from a genuine statement
// error that would fail identically on every replica.
var ErrUnknownTable = errors.New("sqlmini: unknown table")

// unknownTableError formats the canonical unknown-table error. The
// message is identical to the historical fmt.Errorf text, so callers
// matching on the string keep working.
func unknownTableError(name string) error {
	return fmt.Errorf("%w %q", ErrUnknownTable, name)
}

// IsMissingTable reports whether err is an unknown-table error.
func IsMissingTable(err error) bool { return errors.Is(err, ErrUnknownTable) }

// WriteTable returns the table a write statement targets, or "" for
// reads and statements routing does not special-case. The cluster uses
// it to fan an update out to the holders of the actually-written table
// (a class can span more tables than any one of its statements).
func WriteTable(st Statement) string {
	switch s := st.(type) {
	case *InsertStmt:
		return s.Table
	case *UpdateStmt:
		return s.Table
	case *DeleteStmt:
		return s.Table
	}
	return ""
}

// CloneTable returns a deep copy of a table's schema and rows. The copy
// is cut under the engine's read lock, so it is a consistent snapshot
// relative to concurrent writes; rows are copied so the caller owns
// them outright and may hold the result while the engine keeps
// serving. This is the live migration's transport: the source
// backend's applier cuts the clone at an exact position in the global
// update order.
func (e *Engine) CloneTable(name string) ([]Column, []Row, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, nil, unknownTableError(name)
	}
	cols := make([]Column, len(t.Cols))
	copy(cols, t.Cols)
	rows := make([]Row, 0, t.rows.n)
	for ci := range t.rows.chunks {
		for _, r := range t.rows.chunk(ci) {
			rows = append(rows, append(make(Row, 0, len(r)), r...))
		}
	}
	return cols, rows, nil
}
