package telemetry

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Counters, gauges and histograms must tolerate concurrent registration
// and update (run under -race) without losing increments.
func TestRegistryConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				reg.Counter("requests").Add(1)
				reg.Gauge("inflight").Add(1)
				reg.Histogram("latency").Observe(time.Microsecond)
				reg.Gauge("inflight").Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("requests").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := reg.Gauge("inflight").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := reg.Histogram("latency").Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests").Add(7)
	reg.Gauge("inflight").Add(2)
	reg.RegisterGaugeFunc("cache_hits", func() int64 { return 41 })
	reg.Histogram("http_request").Observe(5 * time.Millisecond)
	reg.Histogram("maxmin_alloc") // registered, never observed

	snap := reg.Snapshot()
	if snap.Counters["requests"] != 7 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Gauges["inflight"] != 2 || snap.Gauges["cache_hits"] != 41 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	if snap.Histograms["http_request"].Count != 1 {
		t.Errorf("histograms = %v", snap.Histograms)
	}
	// Every registered histogram is present, observed or not, and the
	// whole snapshot must marshal.
	if h, ok := snap.Histograms["maxmin_alloc"]; !ok || h.Count != 0 {
		t.Errorf("unobserved histogram = %+v, present %v; want present with count 0", h, ok)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	for _, want := range []string{`"maxmin_alloc"`, `"p50Ms"`, `"cache_hits"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("snapshot JSON lacks %s: %s", want, buf.String())
		}
	}
}

// A gauge func may read its own registry: both renders call gauge funcs
// outside the registry's lock, so neither deadlocks.
func TestGaugeFuncReadsOwnRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests").Add(3)
	reg.RegisterGaugeFunc("requests_seen", func() int64 { return reg.Counter("requests").Value() })
	renders := map[string]func() int64{
		"Snapshot": func() int64 { return reg.Snapshot().Gauges["requests_seen"] },
		"WritePrometheus": func() int64 {
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf, ""); err != nil || !strings.Contains(buf.String(), "\nrequests_seen 3\n") {
				return -1
			}
			return 3
		},
	}
	for name, render := range renders {
		got := make(chan int64, 1)
		go func() { got <- render() }()
		select {
		case v := <-got:
			if v != 3 {
				t.Errorf("%s: requests_seen = %d, want 3", name, v)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s did not return within 5s: the gauge func deadlocked on its registry", name)
		}
	}
}

// A registry holds named metrics only: the flight-recorder ring belongs to
// the process state, so a server's registry costs next to nothing.
func TestNewRegistryIsSmall(t *testing.T) {
	const calls, budget = 10, 16 << 10
	regs := make([]*Registry, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range regs {
		regs[i] = NewRegistry()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Errorf("%d NewRegistry calls allocated %d B, want under %d B", calls, got, budget)
	}
	runtime.KeepAlive(regs)
}

func TestSampleRuntime(t *testing.T) {
	rs := SampleRuntime()
	if rs.Goroutines <= 0 {
		t.Errorf("goroutines = %d, want > 0", rs.Goroutines)
	}
	if rs.HeapLiveBytes <= 0 {
		t.Errorf("heap = %d, want > 0", rs.HeapLiveBytes)
	}
	if rs.GCPauseP50Ms < 0 || rs.GCPauseMaxMs < rs.GCPauseP50Ms {
		t.Errorf("gc pauses p50=%v max=%v inconsistent", rs.GCPauseP50Ms, rs.GCPauseMaxMs)
	}
}

func TestProgressLinesAndETA(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "sweep", 4)
	if p == nil {
		t.Fatal("NewProgress returned nil for a live writer")
	}
	p.interval = 0 // no throttling in the test
	p.Step(1)
	p.Step(1)
	p.Step(2)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %q", len(lines), out)
	}
	if !strings.Contains(lines[0], "sweep 1/4 (25%)") || !strings.Contains(lines[0], "eta") {
		t.Errorf("first line %q lacks progress/eta", lines[0])
	}
	if !strings.Contains(lines[2], "4/4 (100%)") || strings.Contains(lines[2], "eta") {
		t.Errorf("final line %q should be complete without eta", lines[2])
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.Step(1) // must not panic
	p.Finish()
	if NewProgress(nil, "x", 10) != nil {
		t.Error("nil writer should yield nil Progress")
	}
}
