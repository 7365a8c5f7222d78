package sqlmini

import "maps"

// Copy-on-write storage units. A table keeps its row headers in a
// directory of fixed-size chunks and each key index (the primary key
// and every secondary index) in a fixed set of hash shards. A published
// tableView copies the directory header and the shard arrays, so a
// writer pays for what it touches: its first rewrite of a chunk or
// shard in an epoch clones that unit alone (see view.go for the
// sharing discipline).
//
// Ownership is tracked by generation: Table.gen advances every time a
// view of the table is cut, and each unit records the generation that
// allocated it. A unit whose generation equals the table's was made
// after the last cut, so no published view can reach it and the writer
// may rewrite it in place.

const (
	// chunkRows is the number of row headers per chunk (a power of two).
	chunkRows  = 256
	chunkShift = 8
	// keyShards is the number of shards per key index (a power of two).
	keyShards = 64
)

// rowChunk is one fixed-size block of row headers.
type rowChunk struct {
	rows [chunkRows]Row
	gen  uint64
}

// rowStore is a directory of row chunks holding n rows: every chunk but
// the last is full. A view copies the struct; appends write only slots
// at or past n and directory entries at or past len(chunks), which no
// earlier copy ever reads, so appending needs no cloning.
type rowStore struct {
	chunks []*rowChunk
	n      int
	dirGen uint64 // generation that allocated the directory's backing array
}

// at returns row i (i < n).
func (s *rowStore) at(i int) Row {
	return s.chunks[i>>chunkShift].rows[i&(chunkRows-1)]
}

// chunk returns the used row headers of chunk ci.
func (s *rowStore) chunk(ci int) []Row {
	rows := s.chunks[ci].rows[:]
	if rest := s.n - ci<<chunkShift; rest < chunkRows {
		return rows[:rest]
	}
	return rows
}

// flat returns all rows as one slice: the chunk itself when there is at
// most one, a fresh copy otherwise.
func (s *rowStore) flat() []Row {
	if len(s.chunks) == 1 {
		return s.chunk(0)
	}
	out := make([]Row, 0, s.n)
	for ci := range s.chunks {
		out = append(out, s.chunk(ci)...)
	}
	return out
}

// head returns the first min(k, n) rows as one slice, aliasing the
// first chunk when they fit in it.
func (s *rowStore) head(k int) []Row {
	if k > s.n {
		k = s.n
	}
	if k <= chunkRows {
		if k == 0 {
			return nil
		}
		return s.chunks[0].rows[:k]
	}
	out := make([]Row, 0, k)
	for ci := 0; len(out) < k; ci++ {
		c := s.chunk(ci)
		if rest := k - len(out); len(c) > rest {
			c = c[:rest]
		}
		out = append(out, c...)
	}
	return out
}

// reserve sizes the directory for extra more rows, so a bulk load
// grows it once.
func (s *rowStore) reserve(extra int, gen uint64) {
	need := (s.n + extra + chunkRows - 1) >> chunkShift
	if need <= cap(s.chunks) {
		return
	}
	dir := make([]*rowChunk, len(s.chunks), need)
	copy(dir, s.chunks)
	s.chunks = dir
	s.dirGen = gen
}

// append adds r as row n.
func (s *rowStore) append(r Row, gen uint64) {
	j := s.n & (chunkRows - 1)
	if j == 0 {
		if len(s.chunks) == cap(s.chunks) {
			s.dirGen = gen // append reallocates the directory
		}
		s.chunks = append(s.chunks, &rowChunk{gen: gen})
	}
	s.chunks[len(s.chunks)-1].rows[j] = r
	s.n++
}

// set replaces row i (i < n), cloning the directory and the chunk first
// when an older generation may still be published with them.
func (s *rowStore) set(i int, r Row, gen uint64) {
	ci := i >> chunkShift
	c := s.chunks[ci]
	if c.gen != gen {
		if s.dirGen != gen {
			dir := make([]*rowChunk, len(s.chunks), cap(s.chunks))
			copy(dir, s.chunks)
			s.chunks = dir
			s.dirGen = gen
		}
		nc := &rowChunk{rows: c.rows, gen: gen}
		s.chunks[ci] = nc
		c = nc
	}
	c.rows[i&(chunkRows-1)] = r
}

// keyShard is one copy-on-write shard of a keyMap.
type keyShard[V any] struct {
	m   map[string]V
	gen uint64
}

// keyMap is a hash map split into keyShards shards by the FNV-1a hash
// of the key. A view copies the shard array (keyShards pointers), so a
// writer swaps in a cloned shard without touching any view.
type keyMap[V any] struct {
	shards [keyShards]*keyShard[V]
}

// newKeyMap returns an empty map of generation gen with room for about
// hint keys.
func newKeyMap[V any](hint int, gen uint64) keyMap[V] {
	var m keyMap[V]
	for i := range m.shards {
		m.shards[i] = &keyShard[V]{m: make(map[string]V, hint/keyShards), gen: gen}
	}
	return m
}

// shardOf hashes a key to its shard (32-bit FNV-1a, so the placement is
// the same on every replica and every run).
func shardOf(k string) int {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return int(h & (keyShards - 1))
}

// get looks a key up.
func (m *keyMap[V]) get(k string) (V, bool) {
	v, ok := m.shards[shardOf(k)].m[k]
	return v, ok
}

// own returns the writable map of k's shard in generation gen, cloning
// the shard when an older generation may still be published with it.
func (m *keyMap[V]) own(k string, gen uint64) map[string]V {
	s := shardOf(k)
	sh := m.shards[s]
	if sh.gen != gen {
		sh = &keyShard[V]{m: maps.Clone(sh.m), gen: gen}
		m.shards[s] = sh
	}
	return sh.m
}

// reserve replaces every shard with an owned copy sized for extra more
// keys, so a bulk load neither clones per shard nor regrows, and can
// write through owned without further checks.
func (m *keyMap[V]) reserve(extra int, gen uint64) {
	for i, sh := range m.shards {
		nm := make(map[string]V, len(sh.m)+extra/keyShards+1)
		for k, v := range sh.m {
			nm[k] = v
		}
		m.shards[i] = &keyShard[V]{m: nm, gen: gen}
	}
}

// owned returns the map of k's shard, which the caller has owned
// (reserve or a fresh newKeyMap in the current generation).
func (m *keyMap[V]) owned(k string) map[string]V {
	return m.shards[shardOf(k)].m
}
