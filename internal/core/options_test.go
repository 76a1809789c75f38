package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/fault"
	"leosim/internal/graph"
	"leosim/internal/ground"
	"leosim/internal/stats"
	"leosim/internal/topo"
)

func TestWithSGP4PropagationOption(t *testing.T) {
	scale := TinyScale()
	scale.NumSnapshots = 1
	kep, err := NewSim(Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	sgp, err := NewSim(Starlink, scale, WithSGP4Propagation())
	if err != nil {
		t.Fatal(err)
	}
	t0 := kep.SnapshotTimes()[0]
	// Positions differ slightly (J2 short-period terms) but the networks
	// remain structurally comparable.
	pk := kep.Const.PositionsECEF(t0)
	ps := sgp.Const.PositionsECEF(t0)
	var maxD float64
	for i := range pk {
		if d := pk[i].Distance(ps[i]); d > maxD {
			maxD = d
		}
	}
	if maxD == 0 {
		t.Errorf("SGP4 option had no effect")
	}
	if maxD > 100 {
		t.Errorf("SGP4 vs Kepler diverged %v km at epoch+0 — implausible", maxD)
	}
	if r, err := RunThroughput(context.Background(), sgp, Hybrid, 1, t0); err != nil || r.AggregateGbps <= 0 {
		t.Errorf("SGP4-propagated sim cannot run experiments: %v %v", r, err)
	}
}

// topo's motifs are sims derived from the caller's: under SGP4 the plus-grid
// hybrid cell pools the sim's own hybrid RTTs (the sweep used to build every
// motif's constellation on the Kepler propagator).
func TestTopoKeepsSGP4(t *testing.T) {
	ctx := context.Background()
	scale := TinyScale()
	scale.NumSnapshots = 2
	s, err := NewSim(Starlink, scale, WithSGP4Propagation())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTopo(ctx, s, Args{Fault: fault.SatOutage, ChurnStep: 10 * time.Second, ChurnWindow: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var pooled []float64
	for _, at := range s.SnapshotTimes() {
		rr, err := s.pairRTTs(ctx, s.NetworkAt(at, Hybrid))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rr {
			if !math.IsInf(r, 1) {
				pooled = append(pooled, r)
			}
		}
	}
	if got, want := res.Cell(topo.PlusGrid, Hybrid).MedianRTTMs, Float(stats.Percentile(pooled, 50)); got != want {
		t.Errorf("plus-grid hybrid median %v ms, the sim's own %v ms", got, want)
	}
}

// The sims an experiment derives for its comparison differ from the caller's
// in the one option the comparison is about: motif, propagator, satellite
// capacity and added cities carry over (RunGSOImpact, RunCrossShell, topo and
// relays used to build theirs from the bare choice and scale, comparing across
// motifs or propagators).
func TestDeriveKeepsOptions(t *testing.T) {
	s, err := NewSim(Starlink, TinyScale(), WithMotifID(topo.Ladder), WithSatelliteCapacity(0), WithSGP4Propagation())
	if err != nil {
		t.Fatal(err)
	}
	if s, err = s.WithCities("Brisbane"); err != nil {
		t.Fatal(err)
	}
	brisbane, _ := s.FindCity("Brisbane")
	at := s.SnapshotTimes()[1]
	sats := s.Const.PositionsECEF(at)
	for _, tc := range []struct {
		name  string
		opt   SimOption
		motif topo.ID
		check func(d *Sim) bool
	}{
		{"gsoimpact", WithGSOAvoidance(ground.StarlinkGSOPolicy()), topo.Ladder, func(d *Sim) bool {
			return d.builder.Opts.GSO == ground.StarlinkGSOPolicy() && len(d.Const.Shells) == 1
		}},
		{"crossshell", WithExtraShells(constellation.PolarShell()), topo.Ladder, func(d *Sim) bool {
			return d.builder.Opts.GSO == ground.GSOPolicy{} && len(d.Const.Shells) == 2
		}},
		{"topo", WithMotifID(topo.Nearest), topo.Nearest, func(d *Sim) bool {
			return d.builder.Opts == s.builder.Opts && len(d.Const.Shells) == 1
		}},
		{"beams", withBeamCap(4), topo.Ladder, func(d *Sim) bool {
			return d.builder.Opts.MaxGSLsPerSatellite == 4 && d.builder.Opts.GSO == ground.GSOPolicy{}
		}},
	} {
		d, err := s.derive(tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.check(d) {
			t.Errorf("%s: derived sim lacks the extra option", tc.name)
		}
		if d.Motif != topo.MustBuild(tc.motif, topo.Config{}) || d.SatCapGbps != 0 {
			t.Errorf("%s: derived sim has motif %v, satellite capacity %v; want %v, 0",
				tc.name, d.Motif, d.SatCapGbps, tc.motif)
		}
		if !reflect.DeepEqual(d.Const.PositionsECEF(at)[:len(sats)], sats) {
			t.Errorf("%s: derived sim propagates its satellites differently", tc.name)
		}
		if i, ok := d.FindCity("Brisbane"); !ok || i != brisbane {
			t.Errorf("%s: Brisbane at (%d, %v), want index %d", tc.name, i, ok, brisbane)
		}
	}
	if len(s.Const.Shells) != 1 || s.builder.Opts != (graph.BuildOptions{}) {
		t.Errorf("derive changed its receiver")
	}
}

func TestPctIncrease(t *testing.T) {
	if v := pctIncrease(100, 180); v != 80 {
		t.Errorf("pctIncrease(100,180) = %v", v)
	}
	if v := pctIncrease(0, 0); v != 0 {
		t.Errorf("pctIncrease(0,0) = %v", v)
	}
	if v := pctIncrease(0, 5); !math.IsInf(v, 1) {
		t.Errorf("pctIncrease(0,5) = %v, want +Inf", v)
	}
	if v := pctIncrease(-1, 5); !math.IsInf(v, 1) {
		t.Errorf("pctIncrease(-1,5) = %v, want +Inf", v)
	}
}

func TestTEGainFracEdge(t *testing.T) {
	r := &TEResult{ShortestGbps: 0, TEGbps: 5}
	if r.ThroughputGainFrac() != 0 {
		t.Errorf("zero baseline gain should be 0")
	}
	r = &TEResult{ShortestGbps: 100, TEGbps: 110}
	if g := r.ThroughputGainFrac(); math.Abs(g-0.1) > 1e-12 {
		t.Errorf("gain = %v", g)
	}
}
