// Package telemetry is the unified observability layer shared by batch
// experiment runs and the query server: a metrics registry (atomic counters,
// gauges, fixed-bucket latency histograms with p50/p90/p99 snapshots, and a
// runtime/metrics sampler), lightweight trace spans instrumenting every
// pipeline stage, and a per-run stage-time Recorder carried through
// context.Context.
//
// The package is stdlib-only and built around one hard constraint: when
// telemetry is disabled (the default), the instrumented hot paths — most of
// all the allocation-free Dijkstra kernel — must pay essentially nothing.
// Every span start is gated on a single atomic pointer load; a disabled span
// is the zero Span value, its End a nil check. Nothing allocates on either
// the enabled or the disabled path: Span is a small value, histograms are
// fixed arrays of atomic counters, and the Recorder is a fixed array indexed
// by Stage.
//
// Collection surfaces compose:
//
//   - The process state (Enable/Disable) holds the flight recorder, the
//     running trace capture, and one Registry with a histogram per pipeline
//     stage, registered under the stage's name and fed by the packages that
//     own each stage — the graph builder and Dijkstra kernel, the max-min
//     allocator, the ITU-R curve sampler, the fault realizer, the snapshot
//     cache, the oracle. Active returns that registry.
//   - A Registry of named counters, gauges and histograms: each server
//     creates its own with NewRegistry for its request counters, cache
//     gauges and per-route latencies. /metrics renders the server's
//     registry and then the process registry, each with Snapshot (JSON) or
//     WritePrometheus (text exposition, so standard dashboards scrape it).
//   - A Recorder, attached to a context with WithRecorder, accumulates
//     per-stage wall-clock totals for ONE run or ONE request: experiment
//     JSON envelopes emit it as the stage_times breakdown, the server logs
//     it per request. Stages may nest (a k-disjoint computation contains
//     many searches), so stage totals are per-stage wall time, not a
//     partition of the run.
//   - A Progress reporter turns per-snapshot steps of a long sweep into
//     rate-limited progress/ETA lines.
//   - A flight recorder (EmitEvent / Events / DumpEvents): a fixed ring of
//     structured events — build failures, breaker transitions, degraded
//     serves, chaos injections — served at /debug/events and dumped to
//     stderr on panic or SIGQUIT, so "what happened, in what order" is
//     answerable after the fact.
//   - Per-request tracing (TraceID / StartTracing): spans a capture records
//     export as Chrome trace_event JSON, one track per request or batch
//     snapshot plus an "untraced" track for spans whose context carries no
//     trace ID, viewable in Perfetto.
package telemetry

import (
	"sync/atomic"
)

// process is the state Enable installs: the flight recorder, the running
// trace capture, and the registry of per-stage histograms.
type process struct {
	reg *Registry
	// stages holds reg's stage histograms indexed by Stage — the span fast
	// path does no map lookup.
	stages [NumStages]*Histogram
	// events is the flight recorder: a fixed ring of structured events
	// (build failures, breaker transitions, degraded serves, …).
	events *EventRing
	// tracer, when non-nil, is the running trace capture; spans under a
	// traced context are routed into it.
	tracer atomic.Pointer[Tracer]
}

// active is the process state; nil means telemetry is disabled and every
// span start returns the zero Span after one atomic load.
var active atomic.Pointer[process]

func newProcess() *process {
	p := &process{reg: NewRegistry(), events: newEventRing(DefaultEventCapacity)}
	for s := range p.stages {
		p.stages[s] = p.reg.Histogram(Stage(s).String())
	}
	return p
}

// Enable turns on process-global telemetry and returns the process
// registry, which holds one histogram per stage under the stage's name. If
// telemetry is already enabled the existing state is kept.
func Enable() *Registry {
	for {
		if p := active.Load(); p != nil {
			return p.reg
		}
		if p := newProcess(); active.CompareAndSwap(nil, p) {
			return p.reg
		}
	}
}

// Disable turns process-global telemetry off again (tests, benchmarks).
func Disable() { active.Store(nil) }

// Active returns the process registry, or nil when disabled.
func Active() *Registry {
	if p := active.Load(); p != nil {
		return p.reg
	}
	return nil
}
