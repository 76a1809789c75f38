package main

import (
	"context"
	"regexp"
	"slices"
	"testing"

	"leosim"
)

// tinyConfig shrinks a run to a smoke test: TinyScale, a fraction of a
// second measured, two calls per ledger median, no set-up child processes
// (the test binary cannot re-exec itself as the benchmark).
func tinyConfig(workload string, trace bool) config {
	sc := leosim.TinyScale()
	sc.Seed = 7
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, scale: sc, calls: 2, setups: 1}
}

// TestEveryWorkloadEmitsTheContract runs all five workloads, untraced and
// traced, and holds the harness to BENCHMARK.json: every named metric is
// reported once, in the named unit; nothing fails; the traced re-enactments
// reproduce the real sweeps.
func TestEveryWorkloadEmitsTheContract(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	legalName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	legalUnit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range slices.Concat(sp.EndToEnd, sp.PerLayer) {
		if !legalName.MatchString(m.Name) || !legalUnit.MatchString(m.Unit) {
			t.Errorf("BENCHMARK.json: illegal metric name or unit: %q %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("BENCHMARK.json: %s named twice", m.Name)
		}
		seen[m.Name] = true
	}
	hasSetup := slices.ContainsFunc(sp.EndToEnd, func(m specMetric) bool {
		return m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	})
	if !hasSetup {
		t.Error("BENCHMARK.json: end_to_end must include setup_s in s, lower is better")
	}
	if len(sp.Workloads) != 5 {
		t.Fatalf("BENCHMARK.json names %d workloads, want 5", len(sp.Workloads))
	}

	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(context.Background(), tinyConfig(w.Name, trace), w.Why)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			line, err := r.contract(sp)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
			want := len(sp.EndToEnd)
			if trace {
				want = len(sp.PerLayer)
			}
			if len(line.Metrics) != want {
				t.Errorf("%s trace=%v: contract line has %d metrics, want %d", w.Name, trace, len(line.Metrics), want)
			}
			if r.Attempted < 1 || r.Failed != 0 || r.FailShare != 0 || !r.Correct {
				t.Errorf("%s trace=%v: attempted=%d failed=%d correct=%v\nchecks: %v\nfailures: %v",
					w.Name, trace, r.Attempted, r.Failed, r.Correct, r.Checks, r.Failures)
			}
			if r.ResultDigest == "" {
				t.Errorf("%s trace=%v: no result_digest", w.Name, trace)
			}
			if !trace {
				for _, m := range sp.EndToEnd {
					if line.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, m.Name, line.Metrics[m.Name].Value)
					}
				}
			}
			if trace && r.Metrics["trace.coverage"].Value < 0.8 {
				t.Errorf("%s: trace.coverage %.3f < 0.8", w.Name, r.Metrics["trace.coverage"].Value)
			}
		}
	}
}

func TestNormalizeTrace(t *testing.T) {
	cases := []struct{ in, want []string }{
		{[]string{"--workload", "x", "--trace", "1"}, []string{"--workload", "x", "-trace=1"}},
		{[]string{"--trace", "0", "--seed", "3"}, []string{"-trace=0", "--seed", "3"}},
		{[]string{"-trace"}, []string{"-trace"}},
		{[]string{"-trace", "-seed", "1"}, []string{"-trace", "-seed", "1"}},
	}
	for _, c := range cases {
		if got := normalizeTrace(c.in); !slices.Equal(got, c.want) {
			t.Errorf("normalizeTrace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimeCountsParallelChildrenOnce(t *testing.T) {
	// root [0,100) with a fan-out [10,90) whose two workers overlap.
	tr := &tracer{spans: []span{
		{name: "round", parent: -1, start: 0, end: 100},
		{name: "fan", parent: 0, start: 10, end: 90},
		{name: "work", parent: 1, lane: 1, start: 10, end: 60},
		{name: "work", parent: 1, lane: 2, start: 40, end: 90},
	}}
	self, coverage := tr.selfTimes()
	if got := self["round"][0]; got != 20 {
		t.Errorf("round self time = %d, want 20", got)
	}
	if got := self["fan"][0]; got != 0 {
		t.Errorf("fan self time = %d, want 0 (children cover it)", got)
	}
	if got := self["work"]; got != [2]int64{100, 2} {
		t.Errorf("work self/calls = %v, want [100 2]", got)
	}
	if coverage != 0.8 {
		t.Errorf("coverage = %v, want 0.8", coverage)
	}
}

func TestVerdict(t *testing.T) {
	iqr := func(v float64) *float64 { return &v }
	lower := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "answers_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		m    specMetric
		a, b metric
		want string
	}{
		{lower, metric{Value: 100}, metric{Value: 105}, "same"},
		{lower, metric{Value: 100}, metric{Value: 120}, "worse"},
		{lower, metric{Value: 100}, metric{Value: 80}, "better"},
		{higher, metric{Value: 100}, metric{Value: 80}, "worse"},
		{higher, metric{Value: 100}, metric{Value: 120}, "better"},
		{lower, metric{Value: 100, IQR: iqr(30)}, metric{Value: 120}, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v→%v: verdict %q, want %q", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}
