package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"qcpa/internal/cluster"
	"qcpa/internal/server"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
)

// tpcappCapRPS sizes the pre-generated streams: they cover the measured
// time at up to this many requests per second. A faster system exhausts
// them, which fails the run.
const tpcappCapRPS = 8000

// appReq is one generated TPC-App request.
type appReq struct {
	sql, class string
	write      bool
	// customer is the customer an orderStatus read asks for, or -1.
	customer int64
}

// tpcappLoad sends the TPC-App mix as unprepared text requests tagged
// with their class.
type tpcappLoad struct {
	streams, directs [workers][]appReq
	nCust            int64
}

// generateStreams draws per streams of n requests each from the mix,
// stream k seeded by (seed, first+k). The streams are generated one
// after another because insert keys come from a process-wide counter.
func generateStreams(f *fixture, first, n int, out *[workers][]appReq) {
	for w := range out {
		rng := newStreamRand(f.seed, first+w)
		s := make([]appReq, n)
		for i := range s {
			s[i] = toAppReq(f.mix.Next(rng))
		}
		out[w] = s
	}
}

func toAppReq(r workload.Request) appReq {
	a := appReq{sql: r.SQL, class: r.Class, write: r.Write, customer: -1}
	if strings.HasPrefix(r.SQL, "SELECT o_id, o_status") {
		id, err := strconv.ParseInt(r.SQL[strings.LastIndex(r.SQL, " ")+1:], 10, 64)
		if err == nil {
			a.customer = id
		}
	}
	return a
}

func (t *tpcappLoad) setup(f *fixture, wire, direct time.Duration) error {
	t.nCust = f.rows["customer"]
	per := func(d time.Duration) int { return int(math.Ceil(tpcappCapRPS * d.Seconds() / workers)) }
	generateStreams(f, 0, per(wire), &t.streams)
	generateStreams(f, workers, per(direct), &t.directs)
	return nil
}

// check verifies a reply: every write changes exactly one row, and
// every orderStatus read returns its customer's 3 orders (order o
// belongs to customer o mod the customer count).
func (t *tpcappLoad) check(r *appReq, affected, rows int, orderID func(i int) (int64, bool)) error {
	if r.write {
		if affected != 1 {
			return fmt.Errorf("%q changed %d rows, want 1", r.sql, affected)
		}
		return nil
	}
	if r.customer < 0 {
		return nil
	}
	if rows != 3 {
		return fmt.Errorf("%q returned %d orders, want 3", r.sql, rows)
	}
	seen := 0
	for i := 0; i < rows; i++ {
		o, ok := orderID(i)
		if !ok || o%t.nCust != r.customer {
			return fmt.Errorf("%q returned order %d, which is not the customer's", r.sql, o)
		}
		seen |= 1 << (o / t.nCust)
	}
	if seen != 7 {
		return fmt.Errorf("%q returned a repeated order", r.sql)
	}
	return nil
}

func (t *tpcappLoad) do(f *fixture, w, i int) reply {
	if i >= len(t.streams[w]) {
		return reply{exhausted: true}
	}
	r := &t.streams[w][i]
	resp, err := f.clients[w/outstanding].Do(server.Request{SQL: r.sql, Class: r.class, Write: r.write})
	if err != nil {
		return reply{fail: err}
	}
	if !resp.OK {
		return reply{fail: fmt.Errorf("%q: %s %s", r.sql, resp.Code, resp.Error)}
	}
	out := reply{serverUS: resp.DurationUS, write: r.write}
	out.bad = t.check(r, resp.Affected, len(resp.Rows), func(k int) (int64, bool) {
		id, ok := resp.Rows[k][0].(int64)
		return id, ok
	})
	return out
}

func (t *tpcappLoad) direct(ctx context.Context, f *fixture, w, i int) (*cluster.Result, reply) {
	if i >= len(t.directs[w]) {
		return nil, reply{exhausted: true}
	}
	r := &t.directs[w][i]
	res, err := f.cl.ExecuteContext(ctx, workload.Request{SQL: r.sql, Class: r.class, Write: r.write})
	if err != nil {
		return nil, reply{fail: fmt.Errorf("%q: %w", r.sql, err)}
	}
	out := reply{write: r.write}
	out.bad = t.check(r, res.Affected, len(res.Data), func(k int) (int64, bool) {
		v := res.Data[k][0]
		return v.I, v.K == sqlmini.KindInt
	})
	return res, out
}

func (t *tpcappLoad) layers(f *fixture, o *outcome, budget time.Duration, batch int, tr *tracer) error {
	var texts, readTexts, writeTexts []string
	var readReqs []*appReq
	for i := 0; len(texts) < maxPassInputs; i++ {
		w := i % workers
		if i/workers >= len(t.streams[w]) {
			break
		}
		r := &t.streams[w][i/workers]
		texts = append(texts, r.sql)
		if r.write {
			writeTexts = append(writeTexts, r.sql)
		} else {
			readTexts = append(readTexts, r.sql)
			readReqs = append(readReqs, r)
		}
	}
	var err error
	if o.metrics["sqlmini.parse_us_mean"], err = parsePass(texts, budget, tr); err != nil {
		return err
	}
	tables := make([]string, 0, len(tpcapp.Schema()))
	for name := range tpcapp.Schema() {
		tables = append(tables, name)
	}
	e, err := f.standalone(tables)
	if err != nil {
		return err
	}
	reads, err := parseAll(readTexts)
	if err != nil {
		return err
	}
	o.metrics["sqlmini.read_us_p50"], err = readPass(e, reads, budget, tr, func(i int, res *sqlmini.Result) error {
		return t.check(readReqs[i], res.Affected, len(res.Rows), func(k int) (int64, bool) {
			v := res.Rows[k][0]
			return v.I, v.K == sqlmini.KindInt
		})
	})
	if err != nil {
		return err
	}
	writes, err := parseAll(writeTexts)
	if err != nil {
		return err
	}
	o.metrics["sqlmini.round_us_mean"], err = roundPass(e, writes, batch, budget, tr)
	return err
}

func (t *tpcappLoad) release() {
	t.streams, t.directs = [workers][]appReq{}, [workers][]appReq{}
}
