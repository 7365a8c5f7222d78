package main

import (
	"context"
	"fmt"
	"time"

	"qcpa/internal/cluster"
	"qcpa/internal/server"
	"qcpa/internal/sqlmini"
)

// pointSQL is the point workload's statement; its one literal is the
// argument each execution binds.
const (
	pointSQL    = `SELECT c_id, c_uname, c_fname, c_balance FROM customer WHERE c_id = 0`
	pointSQLFmt = `SELECT c_id, c_uname, c_fname, c_balance FROM customer WHERE c_id = %d`
)

// pointStream is each worker's id stream length; reads are idempotent,
// so a worker cycles through its stream.
const pointStream = 1 << 16

// pointLoad sends primary-key reads on customer through one prepared
// handle per connection, with ids uniform over the loaded rows.
type pointLoad struct {
	ids [workers][]int32
	// want holds, per customer id, the row a standalone reference
	// engine loaded the same way returns.
	want  []sqlmini.Row
	ref   *sqlmini.Engine
	stmts []*server.Stmt
	prep  *cluster.Prepared
}

func (p *pointLoad) setup(f *fixture, _, _ time.Duration) error {
	n := int(f.rows["customer"])
	for w := range p.ids {
		rng := newStreamRand(f.seed, w)
		p.ids[w] = make([]int32, pointStream)
		for i := range p.ids[w] {
			p.ids[w][i] = int32(rng.Intn(n))
		}
	}
	var err error
	if p.ref, err = f.standalone([]string{"customer"}); err != nil {
		return err
	}
	p.want = make([]sqlmini.Row, n)
	for id := range p.want {
		res, err := p.ref.Exec(fmt.Sprintf(pointSQLFmt, id))
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 {
			return fmt.Errorf("reference engine returned %d rows for customer %d", len(res.Rows), id)
		}
		p.want[id] = res.Rows[0]
	}
	p.stmts = p.stmts[:0]
	for _, c := range f.clients {
		st, err := c.Prepare(pointSQL, "", false)
		if err != nil {
			return fmt.Errorf("prepare: %w", err)
		}
		if st.NumArgs() != 1 {
			return fmt.Errorf("prepared point query binds %d args, want 1", st.NumArgs())
		}
		p.stmts = append(p.stmts, st)
	}
	p.prep, err = f.cl.Prepare(pointSQL, "", false)
	return err
}

func (p *pointLoad) do(_ *fixture, w, i int) reply {
	id := p.ids[w][i%pointStream]
	resp, err := p.stmts[w/outstanding].Exec(int64(id))
	if err != nil {
		return reply{fail: err}
	}
	r := reply{serverUS: resp.DurationUS}
	want := p.want[id]
	ok := len(resp.Rows) == 1 && len(resp.Rows[0]) == len(want)
	for k := 0; ok && k < len(want); k++ {
		ok = sameValue(resp.Rows[0][k], want[k])
	}
	if !ok {
		r.bad = fmt.Errorf("customer %d: got %v, want %v", id, resp.Rows, want)
	}
	return r
}

func (p *pointLoad) direct(ctx context.Context, f *fixture, w, i int) (*cluster.Result, reply) {
	id := p.ids[w][i%pointStream]
	res, err := f.cl.ExecPrepared(ctx, p.prep, []sqlmini.Value{sqlmini.Int(int64(id))})
	if err != nil {
		return nil, reply{fail: err}
	}
	var r reply
	if len(res.Data) != 1 || !sameRow(res.Data[0], p.want[id]) {
		r.bad = fmt.Errorf("direct customer %d: got %v, want %v", id, res.Data, p.want[id])
	}
	return res, r
}

func (p *pointLoad) layers(_ *fixture, o *outcome, budget time.Duration, _ int, tr *tracer) error {
	n := pointStream
	if n > maxPassInputs {
		n = maxPassInputs
	}
	texts := make([]string, n)
	for i := range texts {
		texts[i] = fmt.Sprintf(pointSQLFmt, p.ids[0][i])
	}
	var err error
	if o.metrics["sqlmini.parse_us_mean"], err = parsePass(texts, budget, tr); err != nil {
		return err
	}
	reads, err := parseAll(texts)
	if err != nil {
		return err
	}
	o.metrics["sqlmini.read_us_p50"], err = readPass(p.ref, reads, budget, tr, func(i int, res *sqlmini.Result) error {
		if id := p.ids[0][i]; len(res.Rows) != 1 || !sameRow(res.Rows[0], p.want[id]) {
			return fmt.Errorf("standalone customer %d: got %v, want %v", id, res.Rows, p.want[id])
		}
		return nil
	})
	// point sends no writes, so it has no rounds to replay.
	o.metrics["sqlmini.round_us_mean"] = 0
	return err
}

func (p *pointLoad) release() {
	p.ids = [workers][]int32{}
	p.want, p.ref = nil, nil
}

// sameRow compares two engine rows value by value.
func sameRow(a, b sqlmini.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
