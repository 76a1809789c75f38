package leosim

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/ground"
	"leosim/internal/itur"
)

// The facade must expose a working end-to-end pipeline: build, route,
// experiment, report — all through the public API.
func TestFacadeEndToEnd(t *testing.T) {
	sim, err := NewSim(Starlink, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Const.Size() != 1584 {
		t.Errorf("const size = %d", sim.Const.Size())
	}

	// Route a pair at the epoch under both modes.
	n := sim.NetworkAt(SnapshotAt(0), Hybrid)
	p, ok := n.ShortestPath(n.CityNode(sim.Pairs[0].Src), n.CityNode(sim.Pairs[0].Dst))
	if !ok {
		t.Fatal("no hybrid path for first pair")
	}
	if p.RTTMs() <= 0 {
		t.Errorf("rtt = %v", p.RTTMs())
	}

	res, err := RunLatency(context.Background(), sim)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteLatencyReport(&buf, res, 5)
	if buf.Len() == 0 {
		t.Errorf("empty report")
	}
}

// The fault-injection surface must work end-to-end through the facade:
// scenario constants, the sweep, and the report.
func TestFacadeResilience(t *testing.T) {
	sim, err := NewSim(Starlink, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunResilience(context.Background(), sim, PlaneOutage, []float64{0, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != PlaneOutage || len(res.Points) != 4 {
		t.Errorf("sweep shape: scenario=%v points=%d", res.Scenario, len(res.Points))
	}
	p, ok := res.PointAt(0.25, BP)
	if !ok || p.FailedSats == 0 {
		t.Errorf("25%% plane outage failed no satellites: %+v", p)
	}
	var buf bytes.Buffer
	WriteResilienceReport(&buf, res)
	if buf.Len() == 0 {
		t.Errorf("empty resilience report")
	}
	for _, sc := range fault.Scenarios() {
		if !sc.Valid() {
			t.Errorf("scenario %q invalid", sc)
		}
	}
}

func TestFacadePresets(t *testing.T) {
	if constellation.StarlinkPhase1().Size() != 1584 || constellation.KuiperPhase1().Size() != 1156 {
		t.Errorf("preset sizes wrong")
	}
	for _, s := range []Scale{TinyScale(), ReducedScale(), LargeScale(), FullScale()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if !SnapshotAt(time.Hour).Equal(geo.Epoch.Add(time.Hour)) {
		t.Errorf("SnapshotAt arithmetic wrong")
	}
}

func TestFacadeCities(t *testing.T) {
	cities, err := ground.Cities(100)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := core.SamplePairs(cities, 50, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 50 {
		t.Errorf("pairs = %d", len(pairs))
	}
}

// ExampleNewSim demonstrates the quickstart flow.
func ExampleNewSim() {
	sim, err := NewSim(Starlink, TinyScale())
	if err != nil {
		panic(err)
	}
	n := sim.NetworkAt(SnapshotAt(0), Hybrid)
	_, ok := n.ShortestPath(n.CityNode(sim.Pairs[0].Src), n.CityNode(sim.Pairs[0].Dst))
	fmt.Println("satellites:", sim.Const.Size(), "routable:", ok)
	// Output: satellites: 1584 routable: true
}

func TestFacadeAttenuation(t *testing.T) {
	ku := itur.LinkParams{LatDeg: 1.35, LonDeg: 103.8, ElevationDeg: 40, FreqGHz: 14.25}
	a, err := itur.TotalAttenuation(ku, 0.5)
	if err != nil || a <= 0 {
		t.Fatalf("TotalAttenuation: %v %v", a, err)
	}
	ka := ku
	ka.FreqGHz = 28.5
	if k, err := itur.TotalAttenuation(ka, 0.5); err != nil || k <= a {
		t.Fatalf("Ka-band attenuation %v (%v) is not above Ku's %v", k, err, a)
	}
	if p := itur.ReceivedPowerFraction(a); p <= 0 || p >= 1 {
		t.Fatalf("power fraction: %v", p)
	}
}
