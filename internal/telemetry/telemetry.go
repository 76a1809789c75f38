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
//   - The process-global active Registry (Enable/Disable) receives per-stage
//     latency histograms from the packages that own each stage — the graph
//     builder and Dijkstra kernel, the max-min allocator, the ITU-R curve
//     sampler, the fault realizer, the snapshot cache. /metrics and the
//     batch -v summaries read it with Snapshot.
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
//   - Per-request tracing (TraceID / StartTracing): spans under a traced
//     context export as Chrome trace_event JSON, one track per request or
//     batch snapshot, viewable in Perfetto.
//   - Prometheus text exposition (Registry.WritePrometheus), so the same
//     registry scrapes into standard dashboards.
package telemetry

import (
	"sync/atomic"
)

// active is the process-global registry; nil means telemetry is disabled
// and every span start returns the zero Span after one atomic load.
var active atomic.Pointer[Registry]

// Enable turns on process-global telemetry, installing (and returning) a
// registry. If telemetry is already enabled the existing registry is kept.
func Enable() *Registry {
	for {
		if r := active.Load(); r != nil {
			return r
		}
		r := NewRegistry()
		if active.CompareAndSwap(nil, r) {
			return r
		}
	}
}

// Disable turns process-global telemetry off again (tests, benchmarks).
func Disable() { active.Store(nil) }

// Active returns the process-global registry, or nil when disabled.
func Active() *Registry { return active.Load() }
