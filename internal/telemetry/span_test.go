package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// withEnabled runs fn with process-global telemetry on, restoring the
// disabled default afterwards so other tests (and the overhead benchmarks)
// see a clean slate.
func withEnabled(t *testing.T, fn func(reg *Registry)) {
	t.Helper()
	reg := Enable()
	defer Disable()
	fn(reg)
}

func TestSpanDisabledIsZero(t *testing.T) {
	Disable()
	sp := StartStageSpan(StageSearch)
	if sp != (Span{}) {
		t.Fatalf("disabled StartStageSpan = %+v, want zero Span", sp)
	}
	sp.End() // must be a no-op, not a panic
	ctx := WithRecorder(context.Background(), NewRecorder())
	if sp := RecordSpan(ctx, StageSearch); sp != (Span{}) {
		t.Fatalf("disabled RecordSpan = %+v, want zero Span", sp)
	}

	// The allocation half of the cost model (ns/op stays a benchmark): no
	// span form allocates, disabled or enabled, with or without a recorder.
	zeroAllocs := func(name string, fn func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", name, allocs)
		}
	}
	zeroAllocs("disabled StartStageSpan+End", func() { StartStageSpan(StageSearch).End() })
	zeroAllocs("disabled StartSpan+End", func() { StartSpan(ctx, StageSearch).End() })
	zeroAllocs("disabled RecordSpan+End", func() { RecordSpan(ctx, StageSearch).End() })
	withEnabled(t, func(*Registry) {
		zeroAllocs("enabled StartStageSpan+End", func() { StartStageSpan(StageSearch).End() })
		zeroAllocs("enabled StartSpan+End under a recorder", func() { StartSpan(ctx, StageSearch).End() })
	})
}

func TestStageSpanFeedsActiveRegistry(t *testing.T) {
	withEnabled(t, func(reg *Registry) {
		sp := StartStageSpan(StageMaxMin)
		time.Sleep(time.Millisecond)
		sp.End()
		h := reg.Histogram(StageMaxMin.String())
		if h.Count() != 1 {
			t.Fatalf("stage histogram count = %d, want 1", h.Count())
		}
		if snap := h.Snapshot(); snap.MaxMs < 0.5 {
			t.Errorf("recorded %v ms, want ≥ 0.5 (slept 1ms)", snap.MaxMs)
		}
	})
}

// Nested spans of different stages must attribute to their own stage, and
// an outer span's total must cover its inner spans' wall time.
func TestSpanNestingAttribution(t *testing.T) {
	withEnabled(t, func(reg *Registry) {
		rec := NewRecorder()
		ctx := WithRecorder(context.Background(), rec)

		outer := RecordSpan(ctx, StageKDisjoint)
		for i := 0; i < 3; i++ {
			inner := RecordSpan(ctx, StageSearch)
			time.Sleep(time.Millisecond)
			inner.End()
		}
		outer.End()

		if got := rec.Count(StageSearch); got != 3 {
			t.Errorf("search count = %d, want 3", got)
		}
		if got := rec.Count(StageKDisjoint); got != 1 {
			t.Errorf("kdisjoint count = %d, want 1", got)
		}
		if outer, inner := rec.nanos[StageKDisjoint].Load(), rec.nanos[StageSearch].Load(); outer < inner {
			t.Errorf("outer stage total %v < summed inner %v", time.Duration(outer), time.Duration(inner))
		}
		bd := rec.Breakdown()
		if len(bd) != 2 {
			t.Fatalf("breakdown has %d stages, want 2: %v", len(bd), bd)
		}
		if bd["search"].Count != 3 || bd["search"].TotalMs <= 0 {
			t.Errorf("breakdown[search] = %+v", bd["search"])
		}
		sum := rec.Summary()
		if !strings.Contains(sum, "kdisjoint=") || !strings.Contains(sum, "search=") {
			t.Errorf("Summary = %q, want both stages", sum)
		}
		// RecordSpan never feeds the registry histograms — the owning
		// package does that — so the stage hist must stay empty.
		if c := reg.Histogram(StageSearch.String()).Count(); c != 0 {
			t.Errorf("RecordSpan leaked %d observations into the registry", c)
		}
	})
}

// EndAs reattributes a span decided late (cache hit vs miss).
func TestSpanEndAs(t *testing.T) {
	withEnabled(t, func(reg *Registry) {
		rec := NewRecorder()
		ctx := WithRecorder(context.Background(), rec)
		sp := StartSpan(ctx, StageCacheHit)
		sp.EndAs(StageCacheMiss)
		if got := rec.Count(StageCacheHit); got != 0 {
			t.Errorf("cache_hit count = %d, want 0", got)
		}
		if got := rec.Count(StageCacheMiss); got != 1 {
			t.Errorf("cache_miss count = %d, want 1", got)
		}
		if c := reg.Histogram(StageCacheMiss.String()).Count(); c != 1 {
			t.Errorf("registry cache_miss count = %d, want 1 (StartSpan feeds both)", c)
		}
	})
}

// A recorder shared by parallel workers (the experiment fan-outs) must not
// race and must not lose spans. Run under -race.
func TestRecorderConcurrent(t *testing.T) {
	withEnabled(t, func(*Registry) {
		rec := NewRecorder()
		ctx := WithRecorder(context.Background(), rec)
		const workers, per = 8, 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					sp := RecordSpan(ctx, StageSearch)
					sp.End()
				}
			}()
		}
		wg.Wait()
		if got := rec.Count(StageSearch); got != workers*per {
			t.Errorf("count = %d, want %d", got, workers*per)
		}
	})
}

func TestRecorderSurvivesWithoutCancel(t *testing.T) {
	withEnabled(t, func(*Registry) {
		rec := NewRecorder()
		ctx := WithRecorder(context.Background(), rec)
		detached := context.WithoutCancel(ctx)
		sp := RecordSpan(detached, StageGraphBuild)
		sp.End()
		if got := rec.Count(StageGraphBuild); got != 1 {
			t.Errorf("recorder not reachable through WithoutCancel: count = %d", got)
		}
	})
}

// Summary orders stages by descending total and breaks ties in Stage order,
// so equal totals print the same line on every call, and its string is its
// only allocation.
func TestSummaryOrder(t *testing.T) {
	rec := NewRecorder()
	if got := rec.Summary(); got != "" {
		t.Errorf("empty Summary = %q, want \"\"", got)
	}
	if got := (*Recorder)(nil).Summary(); got != "" {
		t.Errorf("nil Summary = %q, want \"\"", got)
	}
	rec.observe(StageOracleQuery, 1500*time.Microsecond)
	rec.observe(StageCacheHit, 1500*time.Microsecond)
	rec.observe(StageSearch, 1500*time.Microsecond)
	rec.observe(StageGraphBuild, 2*time.Millisecond)
	rec.observe(StageCacheMiss, 4*time.Microsecond)
	rec.observe(StageCacheMiss, 1*time.Microsecond)
	rec.observe(StageMaxMin, 12345678*time.Nanosecond)
	const want = "maxmin_alloc=12.35ms×1 graph_build=2.00ms×1 search=1.50ms×1 cache_hit=1.50ms×1 oracle_query=1.50ms×1 cache_miss=0.01ms×2"
	for i := 0; i < 100; i++ {
		if got := rec.Summary(); got != want {
			t.Fatalf("call %d: Summary = %q, want %q", i, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = rec.Summary() }); allocs > 1 {
		t.Errorf("Summary allocates %.0f times, want at most 1", allocs)
	}
}

func TestNilRecorderBreakdown(t *testing.T) {
	var rec *Recorder
	if bd := rec.Breakdown(); bd != nil {
		t.Errorf("nil recorder breakdown = %v, want nil", bd)
	}
	if bd := NewRecorder().Breakdown(); bd != nil {
		t.Errorf("empty recorder breakdown = %v, want nil (omitted from JSON)", bd)
	}
}

func TestStageNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "" || strings.HasPrefix(name, "stage(") {
			t.Errorf("stage %d has no name", s)
		}
		if seen[name] {
			t.Errorf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
}
