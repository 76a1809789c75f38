package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"leosim/internal/stats"
)

// specPath is where the harness finds BENCHMARK.json: it runs from bench/
// (`go run -C bench leosim/bench`, `go test` in the package directory).
const specPath = "../BENCHMARK.json"

// outDir holds result files and traces; it is git-ignored.
const outDir = "out"

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", specPath, err)
	}
	return &s, nil
}

// why returns the recorded reason for a workload.
func (s *spec) why(workload string) string {
	for _, w := range s.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// metric is one reported number. Value is what the definition says (a median
// for timings); N, Min and IQR describe the samples behind it — rounds for a
// sweep, one-second windows for a served workload, set-ups for setup_s — and
// are absent for counts and single readings.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
	Min   *float64 `json:"min,omitempty"`
	IQR   *float64 `json:"iqr,omitempty"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload     string            `json:"workload"`
	Why          string            `json:"why"`
	Trace        bool              `json:"trace"`
	Stamp        stamp             `json:"stamp"`
	MeasuredS    float64           `json:"measured_s"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	FailShare    float64           `json:"fail_share"`
	Correct      bool              `json:"correct"`
	ResultDigest string            `json:"result_digest"`
	Failures     []string          `json:"failures,omitempty"`
	Checks       []string          `json:"checks,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	SelfTimeMs   map[string]selfMs `json:"self_time_ms,omitempty"`
	TraceFile    string            `json:"trace_file,omitempty"`
}

// selfMs is one span name's total self time and call count in a traced run.
type selfMs struct {
	SelfMs float64 `json:"self_ms"`
	Calls  int64   `json:"calls"`
}

func newResult(workload string, trace bool) *result {
	return &result{Workload: workload, Trace: trace, Correct: true, Metrics: map[string]metric{}}
}

// set records a count or single reading.
func (r *result) set(name, unit string, v float64) {
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric " + name + " reported twice")
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setSpread records a value computed elsewhere from n operations, with the
// minimum and inter-quartile range of its sub-measurements (rounds,
// one-second windows, set-ups) when there are any.
func (r *result) setSpread(name, unit string, value float64, n int, sub []float64) {
	r.set(name, unit, value)
	m := r.Metrics[name]
	m.N = n
	if len(sub) > 0 {
		s := stats.Summarize(sub)
		iqr := s.P75 - s.P25
		m.Min, m.IQR = &s.Min, &iqr
	}
	r.Metrics[name] = m
}

// setMedian records the median of samples (already in the metric's unit).
func (r *result) setMedian(name, unit string, samples []float64) {
	r.setSpread(name, unit, median(samples), len(samples), samples)
}

// fail counts one failed operation, keeping the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check records a named pass/fail assertion about the run itself (the traced
// re-enactment equalities, the exercised-path checks). A failed check makes
// the run incorrect without counting as an operation.
func (r *result) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		r.Checks = append(r.Checks, "ok: "+msg)
		return
	}
	r.Checks = append(r.Checks, "FAILED: "+msg)
	r.Correct = false
}

// finish derives fail_share and correctness once every operation is counted.
func (r *result) finish() {
	if r.Attempted > 0 {
		r.FailShare = float64(r.Failed) / float64(r.Attempted)
	}
	if r.Failed > 0 {
		r.Correct = false
	}
}

// contractLine is the driver-facing summary: the last line of stdout.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract selects exactly the metrics BENCHMARK.json names for this pass:
// every end-to-end metric untraced, every per-layer metric traced.
func (r *result) contract(s *spec) (contractLine, error) {
	want := s.EndToEnd
	if r.Trace {
		want = s.PerLayer
	}
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractMetric, len(want))}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return line, fmt.Errorf("workload %s did not report %s", r.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return line, fmt.Errorf("%s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return line, fmt.Errorf("%s is %v", m.Name, got.Value)
		}
		line.Metrics[m.Name] = contractMetric{Value: got.Value, Unit: got.Unit}
	}
	return line, nil
}

// print writes every metric by name with its unit, then the verification
// outcome.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed=%d  trace=%v  measured=%.2fs\n", r.Workload, r.Stamp.Seed, r.Trace, r.MeasuredS)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Min != nil {
			fmt.Fprintf(w, " min=%.6g iqr=%.6g", *m.Min, *m.IQR)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-6s (%d failed / %d attempted)\n", "fail_share", r.FailShare, "ratio", r.Failed, r.Attempted)
	fmt.Fprintf(w, "  result_digest %s\n", r.ResultDigest)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  check %s\n", c)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}

// resultFile names a workload's record inside outDir.
func resultFile(workload string, trace bool) string {
	if trace {
		return filepath.Join(outDir, workload+".trace.json")
	}
	return filepath.Join(outDir, workload+".json")
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultSet is one complete set of runs: what `go run . ` writes and what
// -compare reads.
type resultSet struct {
	Trace   bool      `json:"trace"`
	Results []*result `json:"results"`
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}
