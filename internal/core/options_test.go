package core

import (
	"context"
	"math"
	"testing"

	"leosim/internal/constellation"
	"leosim/internal/ground"
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

// The sims an experiment derives for its comparison differ from the caller's
// in the one option the comparison is about: motif, satellite capacity and
// added cities carry over (RunGSOImpact and RunCrossShell used to build theirs
// from the bare choice and scale, comparing across motifs).
func TestDeriveKeepsOptions(t *testing.T) {
	s, err := NewSim(Starlink, TinyScale(), WithMotifID(topo.Ladder), WithSatelliteCapacity(0))
	if err != nil {
		t.Fatal(err)
	}
	if s, err = s.WithCities("Brisbane"); err != nil {
		t.Fatal(err)
	}
	brisbane, _ := s.FindCity("Brisbane")
	for _, tc := range []struct {
		name  string
		opt   SimOption
		check func(d *Sim) bool
	}{
		{"gsoimpact", WithGSOAvoidance(ground.StarlinkGSOPolicy()), func(d *Sim) bool {
			return d.builder.Opts.GSO == ground.StarlinkGSOPolicy() && len(d.Const.Shells) == 1
		}},
		{"crossshell", WithExtraShells(constellation.PolarShell()), func(d *Sim) bool {
			return d.builder.Opts.GSO == ground.GSOPolicy{} && len(d.Const.Shells) == 2
		}},
	} {
		d, err := s.derive(tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !tc.check(d) {
			t.Errorf("%s: derived sim lacks the extra option", tc.name)
		}
		if d.Motif != topo.MustBuild(topo.Ladder, topo.Config{}) || d.SatCapGbps != 0 {
			t.Errorf("%s: derived sim has motif %v, satellite capacity %v; want ladder, 0",
				tc.name, d.Motif, d.SatCapGbps)
		}
		if i, ok := d.FindCity("Brisbane"); !ok || i != brisbane {
			t.Errorf("%s: Brisbane at (%d, %v), want index %d", tc.name, i, ok, brisbane)
		}
	}
	if len(s.Const.Shells) != 1 || s.builder.Opts.GSO != (ground.GSOPolicy{}) {
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
