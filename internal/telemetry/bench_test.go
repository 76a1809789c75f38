package telemetry

import (
	"context"
	"testing"
	"time"
)

// The disabled span path is the contract the routing kernel depends on:
// one atomic load, no allocation, single-digit nanoseconds.
func BenchmarkSpanDisabled(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartStageSpan(StageSearch)
		sp.End()
	}
}

// The Enabled benchmarks time the span or event alone: Enable allocates the
// event ring, so the timer starts after it.
func BenchmarkSpanEnabled(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartStageSpan(StageSearch)
		sp.End()
	}
}

func BenchmarkSpanEnabledWithRecorder(b *testing.B) {
	Enable()
	defer Disable()
	ctx := WithRecorder(context.Background(), NewRecorder())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(ctx, StageSearch)
		sp.End()
	}
}

// The disabled event path shares the span contract: one atomic load, no
// allocation — emitters stay in the serve and build hot paths unconditionally.
func BenchmarkEventDisabled(b *testing.B) {
	Disable()
	key := Str("key", "bp@snap0")
	dur := Int64("durMs", 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EmitEvent(nil, CatBuild, SevInfo, "build done", key, dur)
	}
}

// Enabled, an emit copies one fixed-size Event into the preallocated ring
// under a mutex: O(1), no per-event heap allocation.
func BenchmarkEventEnabled(b *testing.B) {
	Enable()
	defer Disable()
	key := Str("key", "bp@snap0")
	dur := Int64("durMs", 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EmitEvent(nil, CatBuild, SevInfo, "build done", key, dur)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}
