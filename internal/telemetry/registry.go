package telemetry

import (
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable level (in-flight requests, resident
// entries).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of metrics plus the fixed per-stage
// histograms. Registration takes a lock; metric updates are lock-free.
// One registry is installed process-globally with Enable; components that
// must not share a namespace (test servers) create their own with
// NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram

	// stages is indexed by Stage — the span fast path does no map lookup.
	stages [NumStages]*Histogram

	// events is the flight recorder: a fixed ring of structured events
	// (build failures, breaker transitions, degraded serves, …).
	events *EventRing
	// tracer, when non-nil, is the running trace capture; spans under a
	// traced context are routed into it.
	tracer atomic.Pointer[Tracer]
}

// NewRegistry returns an empty registry with all stage histograms and the
// flight-recorder ring ready.
func NewRegistry() *Registry {
	r := &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() int64{},
		hists:      map[string]*Histogram{},
		events:     newEventRing(DefaultEventCapacity),
	}
	for i := range r.stages {
		r.stages[i] = &Histogram{}
	}
	return r
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// RegisterGaugeFunc registers a pull-style gauge: fn is evaluated at
// Snapshot time. It replaces any previous function under the same name —
// the idiom for surfacing another component's atomic stats (the snapshot
// cache) without copying them on every update.
func (r *Registry) RegisterGaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns (registering on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// StageHistogram returns the fixed histogram of one pipeline stage.
func (r *Registry) StageHistogram(s Stage) *Histogram { return r.stages[s] }

// RegistrySnapshot is the JSON-ready view of a registry: every counter and
// gauge by name, every named histogram, and the per-stage histograms that
// saw at least one span.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Stages     map[string]HistogramSnapshot `json:"stages,omitempty"`
}

// Snapshot captures the registry. Counters and gauges are read atomically
// per metric; the snapshot as a whole is a monitoring view, not a
// consistent cut.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistrySnapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges)+len(r.gaugeFuncs) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges)+len(r.gaugeFuncs))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
		for name, fn := range r.gaugeFuncs {
			s.Gauges[name] = fn()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	for i, h := range r.stages {
		if h.Count() == 0 {
			continue
		}
		if s.Stages == nil {
			s.Stages = make(map[string]HistogramSnapshot)
		}
		s.Stages[Stage(i).String()] = h.Snapshot()
	}
	return s
}

// RuntimeStats samples the Go runtime through runtime/metrics: live heap,
// total allocation, GC activity and pause quantiles, goroutine count.
type RuntimeStats struct {
	Goroutines      int64   `json:"goroutines"`
	HeapLiveBytes   int64   `json:"heapLiveBytes"`
	TotalAllocBytes int64   `json:"totalAllocBytes"`
	GCCycles        int64   `json:"gcCycles"`
	GCPauseP50Ms    float64 `json:"gcPauseP50Ms"`
	GCPauseMaxMs    float64 `json:"gcPauseMaxMs"`
}

var runtimeSamples = []metrics.Sample{
	{Name: "/sched/goroutines:goroutines"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/pauses:seconds"},
}

// SampleRuntime reads the runtime/metrics sampler set. It allocates a fresh
// sample slice per call — it is a snapshot-time operation, never on a hot
// path.
func SampleRuntime() RuntimeStats {
	samples := make([]metrics.Sample, len(runtimeSamples))
	copy(samples, runtimeSamples)
	metrics.Read(samples)
	var rs RuntimeStats
	rs.Goroutines = int64(samples[0].Value.Uint64())
	rs.HeapLiveBytes = int64(samples[1].Value.Uint64())
	rs.TotalAllocBytes = int64(samples[2].Value.Uint64())
	rs.GCCycles = int64(samples[3].Value.Uint64())
	if h := samples[4].Value.Float64Histogram(); h != nil {
		rs.GCPauseP50Ms = runtimeHistQuantile(h, 0.50) * 1e3
		rs.GCPauseMaxMs = runtimeHistQuantile(h, 1.0) * 1e3
	}
	return rs
}

// runtimeHistQuantile estimates the q-th quantile of a runtime/metrics
// Float64Histogram (bucket midpoint of the bucket holding the target rank).
func runtimeHistQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	last := 0.0
	for i, c := range h.Counts {
		cum += c
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		if c > 0 {
			last = hi
		}
		if cum >= target {
			return (lo + hi) / 2
		}
	}
	return last
}
