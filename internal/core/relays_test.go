package core

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"leosim/internal/stats"
	"leosim/internal/topo"
)

func TestRunRelayDensitySweep(t *testing.T) {
	base := TinyScale()
	base.NumSnapshots = 2
	s, err := NewSim(Starlink, base)
	if err != nil {
		t.Fatal(err)
	}
	points, err := RunRelayDensitySweep(context.Background(), s, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	dense, sparse := points[0], points[1]
	// Sparser relays strand more satellites and serve fewer pairs.
	if sparse.DisconnectedSatFrac < dense.DisconnectedSatFrac {
		t.Errorf("sparser grid should strand more satellites: %v vs %v",
			sparse.DisconnectedSatFrac, dense.DisconnectedSatFrac)
	}
	if sparse.ReachableFracBP > dense.ReachableFracBP+1e-9 {
		t.Errorf("sparser grid should not reach more pairs: %v vs %v",
			sparse.ReachableFracBP, dense.ReachableFracBP)
	}
	// Hybrid latency is insensitive to relay density (ISLs carry transit);
	// allow a small tolerance for the changing reachable-pair population.
	if dense.MedianMinRTTHybrid <= 0 || sparse.MedianMinRTTHybrid <= 0 {
		t.Errorf("hybrid medians must be positive")
	}
	var buf bytes.Buffer
	WriteRelayReport(&buf, points)
	if !strings.Contains(buf.String(), "relays") {
		t.Errorf("report:\n%s", buf.String())
	}
	if _, err := RunRelayDensitySweep(context.Background(), s, []float64{0}); err == nil {
		t.Errorf("zero spacing must fail")
	}

	// Under a run's journal (`leosim -resume j relays`) every spacing is
	// still computed, not replayed from the first one's steps.
	jour, err := OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"), "relays")
	if err != nil {
		t.Fatal(err)
	}
	journaled, err := RunRelayDensitySweep(WithJournal(context.Background(), jour), s, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(journaled, points) {
		t.Errorf("journaled sweep %+v, want %+v", journaled, points)
	}
}

// Each spacing is a sim with the caller's options: at the sim's own spacing
// the sweep's hybrid median is the sim's own fig2a median, motif included
// (the sweep used to build every spacing on the default +Grid).
func TestRelaySweepKeepsMotif(t *testing.T) {
	ctx := context.Background()
	s, err := NewSim(Starlink, TinyScale(), WithMotifID(topo.Nearest))
	if err != nil {
		t.Fatal(err)
	}
	lat, err := RunLatency(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	points, err := RunRelayDensitySweep(ctx, s, []float64{s.Scale.RelaySpacingDeg})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := points[0].MedianMinRTTHybrid, stats.Percentile(lat.MinRTT[Hybrid], 50); got != want {
		t.Errorf("hybrid median at the sim's own spacing %v ms, the sim's own %v ms", got, want)
	}
}

func TestRunGSOImpact(t *testing.T) {
	s := getTinySim(t)
	r, err := RunGSOImpact(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if r.EquatorialPairs == 0 {
		t.Fatal("no equatorial pairs in tiny sample")
	}
	// §7: the constraint hurts; inflations are non-negative in both modes
	// and BP suffers at least as much as hybrid on either metric.
	if r.MedianInflationBPMs < -1e-6 || r.MedianInflationHybridMs < -1e-6 {
		t.Errorf("negative inflation: bp=%v hy=%v",
			r.MedianInflationBPMs, r.MedianInflationHybridMs)
	}
	// §7's robust claim is about connectivity: the hybrid graph strictly
	// contains the BP graph, so the constraint can never disconnect more
	// hybrid pairs than BP pairs (small tolerance for the per-mode
	// eligible-pair populations differing).
	if r.UnreachableFracBP+0.05 < r.UnreachableFracHybrid {
		t.Errorf("BP unreachable %v below hybrid %v — contradicts graph containment",
			r.UnreachableFracBP, r.UnreachableFracHybrid)
	}
	var buf bytes.Buffer
	WriteGSOImpactReport(&buf, r)
	if !strings.Contains(buf.String(), "gso-impact") {
		t.Errorf("report:\n%s", buf.String())
	}
}
