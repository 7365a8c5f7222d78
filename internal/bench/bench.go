// Package bench produces the repo's machine-readable perf baseline:
// per-figure wall time plus headline metric for every registered
// experiment, and ns/op for the component microbenchmarks, serialized
// as BENCH_<date>.json by `qcpa-bench -json`. Committing one baseline
// per PR gives every later change a recorded trajectory to compare
// against.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"qcpa/internal/experiments"
)

// FigureResult records one experiment's cost and headline.
type FigureResult struct {
	ID         string  `json:"id"`
	Title      string  `json:"title"`
	WallMillis float64 `json:"wall_ms"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
}

// MicroResult records one component microbenchmark.
type MicroResult struct {
	Name       string  `json:"name"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp int64   `json:"bytes_per_op"`
	Iterations int     `json:"iterations"`
}

// Report is the full baseline file.
type Report struct {
	Date       string              `json:"date"`
	GoVersion  string              `json:"go"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Quick      bool                `json:"quick"`
	Options    experiments.Options `json:"options"`
	Figures    []FigureResult      `json:"figures"`
	Micro      []MicroResult       `json:"micro"`
	Overload   *OverloadResult     `json:"overload,omitempty"`
	Wire       *WireResult         `json:"wire,omitempty"`
}

// NewReport stamps the environment fields.
func NewReport(date string, quick bool, opts experiments.Options) *Report {
	return &Report{
		Date:       date,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
		Options:    opts,
	}
}

// Write serializes the report (indented, trailing newline) to path.
func (r *Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunFigures executes the selected experiments (want == nil means all)
// and records wall time and headline metric per figure. Progress goes
// to w (one line per figure) so long runs stay observable.
func RunFigures(opts experiments.Options, want map[string]bool, w io.Writer) ([]FigureResult, error) {
	var out []FigureResult
	for _, e := range experiments.AllExperiments() {
		if want != nil && !want[e.ID] {
			continue
		}
		start := time.Now()
		tab, err := e.Run(opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		fr := FigureResult{
			ID:         e.ID,
			Title:      tab.Title,
			WallMillis: ms,
			Metric:     e.Metric,
			Value:      e.Value(tab),
		}
		if w != nil {
			fmt.Fprintf(w, "%-4s %10.1f ms  %s = %.4g\n", fr.ID, fr.WallMillis, fr.Metric, fr.Value)
		}
		out = append(out, fr)
	}
	return out, nil
}
