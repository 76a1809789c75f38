package telemetry

import (
	"math"
	"runtime/metrics"
	"sort"
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

// Registry is a named collection of counters, gauges, gauge funcs and
// histograms. Registration takes a lock; metric updates are lock-free. Each
// server creates its own with NewRegistry, so several servers never share a
// namespace; the process registry Enable installs holds the stage
// histograms.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() int64{},
		hists:      map[string]*Histogram{},
	}
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
// render time, outside the registry's lock, so it may read this registry
// or take other components' locks. It replaces any previous function under
// the same name, and shadows a Gauge of that name — the idiom for surfacing
// another component's atomic stats (the snapshot cache) without copying
// them on every update.
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

// familyKind is what a metric family is; families render in this order.
type familyKind uint8

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

// family is one metric family as a render sees it: a counter's or gauge's
// value, or a histogram.
type family struct {
	kind  familyKind
	name  string
	value int64
	fn    func() int64
	hist  *Histogram
}

// families is the one walk over a registry's metrics, which both Snapshot
// and WritePrometheus render: every family, sorted by kind and then by
// name. Counters and gauges are read under r.mu; gauge funcs are called
// after it is released.
func (r *Registry) families() []family {
	r.mu.Lock()
	fams := make([]family, 0, len(r.counters)+len(r.gauges)+len(r.gaugeFuncs)+len(r.hists))
	for name, c := range r.counters {
		fams = append(fams, family{kind: kindCounter, name: name, value: c.Value()})
	}
	for name, g := range r.gauges {
		if _, shadowed := r.gaugeFuncs[name]; !shadowed {
			fams = append(fams, family{kind: kindGauge, name: name, value: g.Value()})
		}
	}
	for name, fn := range r.gaugeFuncs {
		fams = append(fams, family{kind: kindGauge, name: name, fn: fn})
	}
	for name, h := range r.hists {
		fams = append(fams, family{kind: kindHistogram, name: name, hist: h})
	}
	r.mu.Unlock()
	for i := range fams {
		if fams[i].fn != nil {
			fams[i].value = fams[i].fn()
		}
	}
	sort.Slice(fams, func(i, j int) bool {
		if fams[i].kind != fams[j].kind {
			return fams[i].kind < fams[j].kind
		}
		return fams[i].name < fams[j].name
	})
	return fams
}

// RegistrySnapshot is the JSON-ready view of a registry: every counter and
// gauge by name, and every histogram, observed or not.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry. Counters and gauges are read atomically
// per metric; the snapshot as a whole is a monitoring view, not a
// consistent cut.
func (r *Registry) Snapshot() RegistrySnapshot {
	var s RegistrySnapshot
	for _, f := range r.families() {
		switch f.kind {
		case kindCounter:
			put(&s.Counters, f.name, f.value)
		case kindGauge:
			put(&s.Gauges, f.name, f.value)
		case kindHistogram:
			put(&s.Histograms, f.name, f.hist.Snapshot())
		}
	}
	return s
}

// put sets m[k] = v, making m on first use so an empty kind stays nil.
func put[V any](m *map[string]V, k string, v V) {
	if *m == nil {
		*m = map[string]V{}
	}
	(*m)[k] = v
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
