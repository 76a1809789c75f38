package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/safe"
)

// numSources counts distinct pair sources: pairRTTs calls the test hook
// exactly once per source per snapshot evaluation.
func numSources(s *Sim) int {
	seen := map[int]bool{}
	for _, p := range s.Pairs {
		seen[p.Src] = true
	}
	return len(seen)
}

// Cancelling during the second snapshot must return the first snapshot's
// aggregates as a Partial result alongside the context error — not lose the
// completed work, and not run the remaining snapshots.
func TestRunLatencyCancelPartial(t *testing.T) {
	s := getTinySim(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Snapshot 1 makes exactly 2×numSources hook calls (BP then Hybrid);
	// the next call is inside snapshot 2, so cancelling there is
	// deterministic.
	perSnapshot := int64(2 * numSources(s))
	var calls atomic.Int64
	pairRTTsTestHook = func(int) {
		if calls.Add(1) == perSnapshot+1 {
			cancel()
		}
	}
	defer func() { pairRTTsTestHook = nil }()

	res, err := RunLatency(ctx, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancellation after a completed snapshot must return a partial result")
	}
	if !res.Partial {
		t.Errorf("Partial not set on truncated result")
	}
	// "Within one snapshot of cancellation": snapshot 1 finished, snapshot 2
	// may or may not have raced to completion, 3 and 4 must not have run.
	if res.SnapshotsDone < 1 || res.SnapshotsDone > 2 {
		t.Errorf("SnapshotsDone = %d, want 1 or 2 of %d", res.SnapshotsDone, s.Scale.NumSnapshots)
	}
	if res.ReachablePairs == 0 {
		t.Errorf("partial result carries no pairs")
	}
}

// A context cancelled before the run starts must fail fast with the context
// error and no result.
func TestRunLatencyPreCancelled(t *testing.T) {
	s := getTinySim(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunLatency(ctx, s)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// A panicking worker inside the per-pair fan-out must surface as a returned
// *safe.PanicError carrying the worker's stack, not crash the process.
func TestRunLatencyWorkerPanic(t *testing.T) {
	s := getTinySim(t)
	pairRTTsTestHook = func(int) { panic("injected worker failure") }
	defer func() { pairRTTsTestHook = nil }()

	res, err := RunLatency(context.Background(), s)
	if res != nil || err == nil {
		t.Fatalf("got (%v, %v), want a panic error", res, err)
	}
	var pe *safe.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *safe.PanicError", err, err)
	}
	if !strings.Contains(err.Error(), "injected worker failure") {
		t.Errorf("panic value lost: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Errorf("panic stack not captured")
	}
}

// A sim whose snapshot count was zeroed out must get an explanatory error
// from RunDisconnected, not a NaN-filled result.
func TestRunDisconnectedZeroSnapshots(t *testing.T) {
	scale := TinyScale()
	scale.NumSnapshots = 1
	s, err := NewSim(Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	s.Scale.NumSnapshots = 0
	res, err := RunDisconnected(context.Background(), s)
	if res != nil || err == nil {
		t.Fatalf("got (%v, %v), want an error", res, err)
	}
	if !strings.Contains(err.Error(), "no snapshots") {
		t.Errorf("err = %v, want a 'no snapshots' explanation", err)
	}
}

// The snapshot cache must stay bounded and evict least-recently-used, so a
// freshly re-touched snapshot survives an insertion but the coldest does not.
func TestNetworkAtLRUEviction(t *testing.T) {
	scale := TinyScale()
	scale.NumSnapshots = 1
	s, err := NewSim(Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]time.Time, networkCacheSize+1)
	for i := range times {
		times[i] = geo.Epoch.Add(time.Duration(i) * time.Minute)
	}

	built := make([]*graph.Network, networkCacheSize)
	for i := 0; i < networkCacheSize; i++ {
		built[i] = s.NetworkAt(times[i], BP)
	}
	if got := s.cachedNetworks(); got != networkCacheSize {
		t.Fatalf("cache holds %d networks, want %d", got, networkCacheSize)
	}

	// Touch the oldest entry so the second-oldest becomes the LRU victim.
	if s.NetworkAt(times[0], BP) != built[0] {
		t.Fatalf("cached snapshot was rebuilt on re-access")
	}
	s.NetworkAt(times[networkCacheSize], BP)
	if got := s.cachedNetworks(); got != networkCacheSize {
		t.Errorf("cache grew to %d networks, want bound %d", got, networkCacheSize)
	}
	if s.NetworkAt(times[0], BP) != built[0] {
		t.Errorf("recently-used snapshot was evicted")
	}
	if s.NetworkAt(times[1], BP) == built[1] {
		t.Errorf("LRU snapshot was not evicted")
	}
}
