package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"sync/atomic"
	"testing"

	"leosim/internal/fault"
)

// The sweep must be a pure function of (sim, scenario, fractions): two runs
// produce identical structs and byte-identical reports.
func TestRunResilienceDeterministic(t *testing.T) {
	s := getTinySim(t)
	fractions := []float64{0, 0.2}
	r1, err := RunResilience(context.Background(), s, fault.SatOutage, fractions)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunResilience(context.Background(), s, fault.SatOutage, fractions)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same sim and scenario produced different sweeps:\n%+v\n%+v", r1, r2)
	}
	var b1, b2 bytes.Buffer
	WriteResilienceReport(&b1, r1)
	WriteResilienceReport(&b2, r2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("reports differ:\n%s\n%s", b1.String(), b2.String())
	}

	// Shape: fraction-major, BP before Hybrid.
	if len(r1.Points) != 2*len(fractions) {
		t.Fatalf("points = %d, want %d", len(r1.Points), 2*len(fractions))
	}
	if r1.Points[0].Mode != BP || r1.Points[1].Mode != Hybrid {
		t.Errorf("mode order: %v %v", r1.Points[0].Mode, r1.Points[1].Mode)
	}

	// 0% failures goes through the same masked-builder path as the baseline,
	// so its row must match the healthy run exactly.
	for _, mode := range []Mode{BP, Hybrid} {
		p, ok := r1.PointAt(0, mode)
		if !ok {
			t.Fatalf("no 0%% point for %v", mode)
		}
		if p.FailedSats != 0 || p.FailedSites != 0 || p.FailedISLs != 0 {
			t.Errorf("%v: 0%% plan realized outages: %+v", mode, p)
		}
		if p.MedianInflationPct != 0 || p.P99InflationPct != 0 {
			t.Errorf("%v: 0%% inflation = %v / %v, want exactly 0", mode, p.MedianInflationPct, p.P99InflationPct)
		}
		if p.ThroughputRetention != 1 {
			t.Errorf("%v: 0%% retention = %v, want exactly 1", mode, p.ThroughputRetention)
		}
	}

	// 20% satellite outages must actually fail satellites and keep the
	// metrics in range.
	for _, mode := range []Mode{BP, Hybrid} {
		p, ok := r1.PointAt(0.2, mode)
		if !ok {
			t.Fatalf("no 20%% point for %v", mode)
		}
		if p.FailedSats == 0 {
			t.Errorf("%v: 20%% outage failed no satellites", mode)
		}
		if p.UnreachableFrac < 0 || p.UnreachableFrac > 1 {
			t.Errorf("%v: unreachable fraction %v", mode, p.UnreachableFrac)
		}
		if p.ThroughputRetention < 0 {
			t.Errorf("%v: negative retention %v", mode, p.ThroughputRetention)
		}
	}

	// The JSON path must survive possibly-infinite medians.
	if err := WriteJSON(io.Discard, "resilience", s, r1); err != nil {
		t.Errorf("JSON export: %v", err)
	}
}

func TestRunResilienceBadInput(t *testing.T) {
	s := getTinySim(t)
	if _, err := RunResilience(context.Background(), s, fault.Scenario("meteor"), nil); err == nil {
		t.Errorf("unknown scenario accepted")
	}
	if _, err := RunResilience(context.Background(), s, fault.SatOutage, []float64{}); err == nil {
		t.Errorf("empty fraction list accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := RunResilience(ctx, s, fault.SatOutage, nil); res != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled sweep: got (%v, %v)", res, err)
	}
}

// Cancelling mid-sweep must return the completed fractions with Partial set.
func TestRunResilienceCancelPartial(t *testing.T) {
	s := getTinySim(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Per evaluated mode the hook fires snapshots×numSources times; the
	// baseline plus the 0% fraction are 4 evaluations. Cancelling on the
	// next call lands inside the 20% fraction, so exactly one fraction
	// completes.
	snaps := s.Scale.NumSnapshots
	if snaps > resilienceMaxSnapshots {
		snaps = resilienceMaxSnapshots
	}
	perEval := int64(snaps * numSources(s))
	var calls atomic.Int64
	searchPairsTestHook = func(int) {
		if calls.Add(1) == 4*perEval+1 {
			cancel()
		}
	}
	defer func() { searchPairsTestHook = nil }()

	res, err := RunResilience(ctx, s, fault.SatOutage, []float64{0, 0.2, 0.3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancellation after a completed fraction must return a partial sweep")
	}
	if !res.Partial {
		t.Errorf("Partial not set")
	}
	if len(res.Fractions) != 1 || res.Fractions[0] != 0 {
		t.Errorf("completed fractions = %v, want [0]", res.Fractions)
	}
	// Points must only ever hold complete fractions — never an orphan BP
	// row whose Hybrid evaluation was cancelled.
	if len(res.Points) != 2*len(res.Fractions) {
		t.Errorf("points = %d, want %d (both modes of each completed fraction)",
			len(res.Points), 2*len(res.Fractions))
	}
}
