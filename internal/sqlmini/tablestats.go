package sqlmini

//qcpa:deterministic — planner statistics feed the cost model; estimates
// must be bit-identical across runs and worker counts.

// Per-view table statistics for the query planner (plan.go).
//
// Statistics are maintained "incrementally as epochs publish" by riding
// the copy-on-write views: publishLocked reuses the previous tableView
// for every table the epoch did not touch, so an untouched table keeps
// its computed statistics across any number of epochs, while a touched
// table gets a fresh view — and therefore fresh (lazily recomputed)
// statistics — at the moment its data changes. No separate invalidation
// protocol is needed.
//
// Estimates are deterministic: the sample is a prefix of the view's
// immutable rows, so the same data always yields the same numbers
// regardless of timing, worker count, or map-iteration order.

import "sync"

// statsSampleRows bounds the rows examined per NDV estimate. A prefix
// (not a random sample) keeps the estimate deterministic; 2048 rows is
// enough to separate "key-like" from "category-like" columns, which is
// all the join-order cost model needs.
const statsSampleRows = 2048

// ndvEstimate returns an estimate of the number of distinct values in
// the view's column col, computed lazily and cached on the view. The
// result is always >= 1.
func (tv *tableView) ndvEstimate(col int) float64 {
	n := tv.rows.n
	if n == 0 {
		return 1
	}
	// The primary key is unique by construction.
	if tv.t != nil && col == tv.t.pkCol {
		return float64(n)
	}
	tv.stats.mu.Lock()
	defer tv.stats.mu.Unlock()
	if tv.stats.ndv == nil {
		tv.stats.ndv = make([]float64, len(tv.t.Cols))
	}
	if v := tv.stats.ndv[col]; v > 0 {
		return v
	}
	v := sampleNDV(tv.rows.head(statsSampleRows), n, col)
	tv.stats.ndv[col] = v
	return v
}

// tableStats caches lazily computed per-column statistics for one
// immutable tableView. The mutex serializes the lazy fill among
// concurrent readers of the same view.
//
//qcpa:lazycache deterministic lazy fill from immutable rows, serialized by mu
type tableStats struct {
	mu  sync.Mutex
	ndv []float64 // per column; 0 = not yet computed
}

// sampleNDV counts distinct values in prefix, the first (at most
// statsSampleRows) rows of a table of n rows, and extrapolates to the
// full row count.
func sampleNDV(prefix []Row, n, col int) float64 {
	sample := len(prefix)
	seen := make(map[string]struct{}, sample)
	for _, r := range prefix {
		seen[r[col].key()] = struct{}{}
	}
	d := len(seen)
	if d < 1 {
		d = 1
	}
	est := float64(d)
	if n > sample {
		if d*4 >= sample*3 {
			// Mostly unique in the sample: scale linearly (key-like).
			est = float64(d) * float64(n) / float64(sample)
		}
		// Otherwise the domain saturates within the prefix
		// (category-like): keep the sampled distinct count.
	}
	if est > float64(n) {
		est = float64(n)
	}
	if est < 1 {
		est = 1
	}
	return est
}
