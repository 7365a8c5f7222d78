package sqlmini

import (
	"fmt"
	"sort"
)

// secondaryIndex is a hash index over one column: each value's key
// maps to the ascending indices of the rows holding it. The writer
// maintains it on every INSERT, UPDATE and DELETE in the same
// copy-on-write shards as the primary key (store.go), and each
// published tableView carries a copy of its shard array, so an indexed
// lookup is a plain map probe against the view's own snapshot.
type secondaryIndex struct {
	col  int
	keys keyMap[[]int]
}

// addRowIndex records row idx under key k in shard map m. Rows are
// mostly added in ascending order (INSERT appends), so the list is
// appended to, which never writes inside a length an older copy of the
// list can read; any other position gets a fresh list.
func addRowIndex(m map[string][]int, k string, idx int) {
	l := m[k]
	if n := len(l); n == 0 || l[n-1] < idx {
		m[k] = append(l, idx)
		return
	}
	p := sort.SearchInts(l, idx)
	nl := make([]int, 0, len(l)+1)
	nl = append(nl, l[:p]...)
	nl = append(nl, idx)
	m[k] = append(nl, l[p:]...)
}

// removeRowIndex drops row idx from key k's list in shard map m, into a
// fresh list (older copies of the shard still read the old one).
func removeRowIndex(m map[string][]int, k string, idx int) {
	l := m[k]
	if len(l) <= 1 {
		delete(m, k)
		return
	}
	p := sort.SearchInts(l, idx)
	nl := make([]int, 0, len(l)-1)
	nl = append(nl, l[:p]...)
	m[k] = append(nl, l[p+1:]...)
}

// CreateIndex builds a secondary hash index on table.column. Point
// lookups (WHERE column = literal) on the table then avoid full scans.
// Indexing the primary key is redundant (it always has one) and is
// rejected, as is indexing the same column twice.
func (e *Engine) CreateIndex(table, column string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[table]
	if !ok {
		return unknownTableError(table)
	}
	ci := t.ColumnIndex(column)
	if ci < 0 {
		return fmt.Errorf("sqlmini: unknown column %q in table %q", column, table)
	}
	if ci == t.pkCol {
		return fmt.Errorf("sqlmini: column %q is the primary key (already indexed)", column)
	}
	for _, idx := range t.indexes {
		if idx.col == ci {
			return fmt.Errorf("sqlmini: column %q already indexed", column)
		}
	}
	x := secondaryIndex{col: ci, keys: newKeyMap[[]int](0, t.gen)}
	for i := 0; i < t.rows.n; i++ {
		k := t.rows.at(i)[ci].key()
		addRowIndex(x.keys.owned(k), k, i)
	}
	t.indexes = append(t.indexes, x)
	// Republish so the new index reaches readers: views cut before this
	// point simply scan. Cached plans chose their access paths without
	// this index, so drop them too.
	t.touch()
	e.dirty = true
	e.InvalidatePlans()
	e.publishLocked()
	return nil
}

// Indexes returns the secondary-indexed column names of a table.
func (e *Engine) Indexes(table string) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[table]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(t.indexes))
	for _, idx := range t.indexes {
		out = append(out, t.Cols[idx.col].Name)
	}
	return out
}

// lookupIndex returns the matching row indices for column = v via a
// secondary index of the view. The boolean reports whether the view
// has an index on that column.
func (tv *tableView) lookupIndex(col int, v Value) ([]int, bool) {
	for i := range tv.indexes {
		if x := &tv.indexes[i]; x.col == col {
			rows, _ := x.keys.get(v.key())
			return rows, true
		}
	}
	return nil, false
}
