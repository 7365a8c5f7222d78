package main

import (
	"fmt"
	"net"
	"sort"

	"qcpa/internal/classify"
	"qcpa/internal/cluster"
	"qcpa/internal/core"
	"qcpa/internal/server"
	"qcpa/internal/sqlmini"
	"qcpa/internal/workload"
	"qcpa/internal/workload/tpcapp"
)

const (
	// eb is the TPC-App scale; RowCounts(eb) is loaded in full, so every
	// id the mix generates hits a loaded row.
	eb = 1
	// nBackends is the serving cluster's size.
	nBackends = 4
	// conns and outstanding shape the closed loop: each connection
	// carries outstanding requests, each waiting for its reply before
	// sending the next.
	conns       = 2
	outstanding = 4
	workers     = conns * outstanding
)

// fixture is the serving workloads' system under test: the TPC-App
// data on a greedy table-based allocation over nBackends, served on
// loopback, with one client per connection.
type fixture struct {
	seed    int64
	rows    map[string]int64
	mix     *workload.Mix
	alloc   *core.Allocation
	cl      *cluster.Cluster
	srv     *server.Server
	clients []*server.Client
}

// loader loads each table with its own tpcapp.Load call. tpcapp.Load
// draws every table it loads from one rng stream, so loading a
// backend's tables together would make a table's rows depend on which
// other tables that backend holds, and replicas would differ.
func loader(rows map[string]int64, seed int64) cluster.Loader {
	return func(e *sqlmini.Engine, tables []string) error {
		for _, t := range tables {
			if err := tpcapp.Load(e, []string{t}, rows, seed); err != nil {
				return err
			}
		}
		return nil
	}
}

// newFixture classifies the TPC-App journal at table granularity,
// allocates it greedily, installs it, and connects the clients.
func newFixture(seed int64) (f *fixture, err error) {
	f = &fixture{seed: seed, rows: tpcapp.RowCounts(eb)}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.mix, err = tpcapp.Mix(eb); err != nil {
		return nil, err
	}
	res, err := classify.Classify(f.mix.Journal(200000), tpcapp.Schema(),
		classify.Options{Strategy: classify.TableBased, RowCounts: f.rows})
	if err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	f.mix.Bind(res)
	if f.alloc, err = core.Greedy(res.Classification, core.UniformBackends(nBackends)); err != nil {
		return nil, fmt.Errorf("greedy: %w", err)
	}
	if err = f.alloc.Validate(); err != nil {
		return nil, fmt.Errorf("greedy allocation: %w", err)
	}
	if f.cl, err = cluster.New(cluster.Config{Backends: core.UniformBackends(nBackends)}); err != nil {
		return nil, err
	}
	if err = f.cl.Install(f.alloc, loader(f.rows, seed)); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.srv = server.Serve(ln, f.cl)
	for i := 0; i < conns; i++ {
		// Retries and the breaker are off: a refused request must count
		// as failed, not be hidden by a resend.
		c, err := server.DialOptions(ln.Addr().String(), server.ClientOptions{
			MaxRetries: -1, BreakerThreshold: -1, Seed: int64(i + 1),
		})
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	return f, nil
}

func (f *fixture) close() {
	for _, c := range f.clients {
		c.Close()
	}
	if f.srv != nil {
		f.srv.Close()
	}
	if f.cl != nil {
		f.cl.Close()
	}
}

// holders maps each table to the backends that hold it.
func (f *fixture) holders() map[string][]int {
	out := make(map[string][]int)
	for i := 0; i < f.cl.NumBackends(); i++ {
		for _, t := range f.cl.Tables(i) {
			out[t] = append(out[t], i)
		}
	}
	return out
}

// checkReplicas compares every table's checksum across the backends
// that hold it.
func (f *fixture) checkReplicas(o *outcome) {
	hs := f.holders()
	tables := make([]string, 0, len(hs))
	for t := range hs {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		var first uint64
		for k, b := range hs[t] {
			sum, err := f.cl.Backend(b).TableChecksum(t)
			if err != nil {
				o.problemf("checksum of %s on backend %d: %v", t, b, err)
				break
			}
			if k == 0 {
				first = sum
			} else if sum != first {
				o.problemf("replicas of %s differ: backend %d has checksum %x, backend %d has %x",
					t, hs[t][0], first, b, sum)
			}
		}
	}
}

// tableRows returns a table's row count on its first holder.
func (f *fixture) tableRows(t string) int {
	if bs := f.holders()[t]; len(bs) > 0 {
		return f.cl.Backend(bs[0]).Table(t).NumRows()
	}
	return 0
}

// standalone returns an engine outside the cluster loaded the same way
// as the cluster's backends.
func (f *fixture) standalone(tables []string) (*sqlmini.Engine, error) {
	e := sqlmini.New()
	return e, loader(f.rows, f.seed)(e, tables)
}

// sameValue reports whether a value decoded from the wire equals an
// engine value.
func sameValue(x interface{}, v sqlmini.Value) bool {
	switch v.K {
	case sqlmini.KindInt:
		i, ok := x.(int64)
		return ok && i == v.I
	case sqlmini.KindFloat:
		f, ok := x.(float64)
		return ok && f == v.F
	case sqlmini.KindText:
		s, ok := x.(string)
		return ok && s == v.S
	default:
		return x == nil
	}
}
