package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxKeptSpans bounds how many spans a traced run writes to its trace
// file. Self times are accumulated over every span; the file keeps the
// first spans so it stays small on high-rate workloads.
const maxKeptSpans = 20000

// span is one timed call into a layer. Spans of one request share ID;
// a child names its parent span. Children measured from outside (the
// server-reported cluster time inside a client call) carry their
// parent's start, since only their duration is known.
type span struct {
	ID      uint64  `json:"id"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// part describes one span handed to tracer.add.
type part struct {
	name, layer string
	dur         time.Duration
}

// selfTime is a layer's accumulated self time: span durations minus
// the parts their children cover.
type selfTime struct {
	Spans  int64   `json:"spans"`
	SelfMS float64 `json:"self_ms"`
}

// tracer keeps a traced run's spans in memory and writes them out when
// the run ends. A nil *tracer records nothing, so untraced code paths
// pass nil.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  uint64
	total int64
	kept  []span
	self  map[string]*selfTime
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), self: make(map[string]*selfTime)}
}

// add records a root span starting at start and its direct children
// under a fresh request id.
func (t *tracer) add(start time.Time, root part, children ...part) {
	if t == nil {
		return
	}
	startUS := float64(start.Sub(t.epoch).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	rootSelf := root.dur
	for _, c := range children {
		rootSelf -= c.dur
		t.note(c.layer, c.dur)
	}
	t.note(root.layer, rootSelf)
	t.total += int64(1 + len(children))
	if len(t.kept)+1+len(children) > maxKeptSpans {
		return
	}
	t.kept = append(t.kept, span{ID: t.next, Name: root.name, Layer: root.layer, StartUS: startUS, DurUS: us(root.dur.Nanoseconds())})
	for _, c := range children {
		t.kept = append(t.kept, span{ID: t.next, Name: c.name, Layer: c.layer, Parent: root.name, StartUS: startUS, DurUS: us(c.dur.Nanoseconds())})
	}
}

func (t *tracer) note(layer string, d time.Duration) {
	s := t.self[layer]
	if s == nil {
		s = &selfTime{}
		t.self[layer] = s
	}
	s.Spans++
	s.SelfMS += float64(d.Nanoseconds()) / 1e6
}

// report prints each layer's self time.
func (t *tracer) report(w io.Writer) {
	layers := make([]string, 0, len(t.self))
	for l := range t.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		s := t.self[l]
		fmt.Fprintf(w, "self time  %-10s %12.3f ms over %8d spans (%.2f us/span)\n",
			l, s.SelfMS, s.Spans, ratio(s.SelfMS*1e3, float64(s.Spans)))
	}
}

// write stores the trace as JSON at path.
func (t *tracer) write(path string, meta map[string]interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]interface{}{
		"meta":        meta,
		"spans_total": t.total,
		"spans_kept":  len(t.kept),
		"self":        t.self,
		"spans":       t.kept,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
