package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"qcpa/internal/sqlmini"
)

// maxPassInputs bounds the statements a standalone sqlmini pass
// prepares; the pass stops earlier when its time budget runs out.
const maxPassInputs = 20000

// streamSeed derives the seed of stream k from the run's seed.
func streamSeed(seed int64, k int) int64 {
	return seed*1_000_003 + int64(k)*7_919 + 1
}

// newStreamRand returns stream k's generator.
func newStreamRand(seed int64, k int) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, k)))
}

// parsePass times sqlmini.Parse over texts until budget runs out and
// returns the mean time per call in us.
func parsePass(texts []string, budget time.Duration, tr *tracer) (float64, error) {
	var total time.Duration
	n := 0
	deadline := time.Now().Add(budget)
	for _, text := range texts {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		if _, err := sqlmini.Parse(text); err != nil {
			return 0, fmt.Errorf("parse %q: %w", text, err)
		}
		d := time.Since(t0)
		total += d
		n++
		tr.add(t0, part{"sqlmini.parse", "sqlmini", d})
	}
	return ratio(us(total.Nanoseconds()), float64(n)), nil
}

// parseAll parses texts for a pass, outside any timing.
func parseAll(texts []string) ([]sqlmini.Statement, error) {
	out := make([]sqlmini.Statement, len(texts))
	for i, text := range texts {
		st, err := sqlmini.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", text, err)
		}
		out[i] = st
	}
	return out, nil
}

// readPass times Engine.ExecStmtContext over reads until budget runs
// out, checks each result, and returns the median time per call in us.
func readPass(e *sqlmini.Engine, reads []sqlmini.Statement, budget time.Duration, tr *tracer,
	check func(i int, res *sqlmini.Result) error) (float64, error) {
	ctx := context.Background()
	var lat []int64
	deadline := time.Now().Add(budget)
	for i, st := range reads {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		res, err := e.ExecStmtContext(ctx, st)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := check(i, res); err != nil {
			return 0, err
		}
		lat = append(lat, d.Nanoseconds())
		tr.add(t0, part{"sqlmini.read", "sqlmini", d})
	}
	return us(quantile(lat, 0.5)), nil
}

// roundPass times Engine.ApplyRound over consecutive batches of writes
// until budget runs out, checks that each write changed exactly one
// row, and returns the mean time per round in us.
func roundPass(e *sqlmini.Engine, writes []sqlmini.Statement, batch int, budget time.Duration, tr *tracer) (float64, error) {
	var total time.Duration
	n := 0
	deadline := time.Now().Add(budget)
	for i := 0; i+batch <= len(writes); i += batch {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		out := e.ApplyRound(writes[i : i+batch])
		d := time.Since(t0)
		for k, r := range out {
			if r.Err != nil {
				return 0, fmt.Errorf("round write %d: %w", i+k, r.Err)
			}
			if r.Affected != 1 {
				return 0, fmt.Errorf("round write %d changed %d rows, want 1", i+k, r.Affected)
			}
		}
		total += d
		n++
		tr.add(t0, part{"sqlmini.round", "sqlmini", d})
	}
	return ratio(us(total.Nanoseconds()), float64(n)), nil
}
