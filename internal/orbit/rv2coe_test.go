package orbit

import (
	"math"
	"testing"
	"time"

	"leosim/internal/geo"
)

func TestElementsFromRVRoundTrip(t *testing.T) {
	// Propagate known elements, recover them from the state vector.
	cases := []Elements{
		Circular(550, 53, 40, 77, geo.Epoch),
		Circular(630, 51.9, 199, 12, geo.Epoch),
		{
			SemiMajorKm: geo.EarthRadius + 800, Eccentricity: 0.05,
			InclinationRad: 63.4 * geo.Deg, RAANRad: 1.1,
			ArgPerigeeRad: 2.2, MeanAnomalyRad: 0.7, Epoch: geo.Epoch,
		},
	}
	for ci, el := range cases {
		k := &KeplerPropagator{El: el} // pure two-body for exact round-trip
		at := geo.Epoch.Add(13 * time.Minute)
		r, v := k.PosVelECI(at)
		got, err := ElementsFromRV(r, v, at)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if !almostEq(got.SemiMajorKm, el.SemiMajorKm, 1e-6*el.SemiMajorKm) {
			t.Errorf("case %d: a = %v, want %v", ci, got.SemiMajorKm, el.SemiMajorKm)
		}
		if !almostEq(got.Eccentricity, el.Eccentricity, 1e-8+1e-6) {
			t.Errorf("case %d: e = %v, want %v", ci, got.Eccentricity, el.Eccentricity)
		}
		if !almostEq(got.InclinationRad, el.InclinationRad, 1e-9) {
			t.Errorf("case %d: i = %v, want %v", ci, got.InclinationRad, el.InclinationRad)
		}
		if el.Eccentricity > 1e-4 {
			if !almostEq(got.RAANRad, el.RAANRad, 1e-7) {
				t.Errorf("case %d: Ω = %v, want %v", ci, got.RAANRad, el.RAANRad)
			}
			if !almostEq(got.ArgPerigeeRad, el.ArgPerigeeRad, 1e-5) {
				t.Errorf("case %d: ω = %v, want %v", ci, got.ArgPerigeeRad, el.ArgPerigeeRad)
			}
		}
		// Re-propagating the recovered elements reproduces the state.
		k2 := &KeplerPropagator{El: got}
		r2, v2 := k2.PosVelECI(at)
		if d := r.Distance(r2); d > 0.5 {
			t.Errorf("case %d: position re-propagation error %v km", ci, d)
		}
		if d := v.Distance(v2); d > 0.01 {
			t.Errorf("case %d: velocity re-propagation error %v km/s", ci, d)
		}
	}
}

func TestElementsFromRVOnSGP4Output(t *testing.T) {
	// Osculating elements recovered from SGP4 states must stay near the
	// TLE's mean elements (differences = periodic perturbations).
	s := issSGP4(t)
	for m := 0; m <= 90; m += 30 {
		at := s.epoch.Add(time.Duration(m) * time.Minute)
		r, v, err := s.PosVelECI(at)
		if err != nil {
			t.Fatal(err)
		}
		el, err := ElementsFromRV(r, v, at)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(el.InclinationRad*geo.Rad, 51.64, 0.3) {
			t.Errorf("t=%dmin: osculating inclination %v", m, el.InclinationRad*geo.Rad)
		}
		if alt := (el.SemiMajorKm - geo.EarthRadius); alt < 320 || alt > 380 {
			t.Errorf("t=%dmin: osculating mean altitude %v", m, alt)
		}
		if el.Eccentricity > 0.01 {
			t.Errorf("t=%dmin: osculating eccentricity %v", m, el.Eccentricity)
		}
	}
}

func TestElementsFromRVDegenerate(t *testing.T) {
	if _, err := ElementsFromRV(geo.Vec3{}, geo.Vec3{X: 7}, geo.Epoch); err == nil {
		t.Errorf("zero position must fail")
	}
	// Radial trajectory: r ∥ v → h = 0.
	if _, err := ElementsFromRV(geo.Vec3{X: 7000}, geo.Vec3{X: 1}, geo.Epoch); err == nil {
		t.Errorf("rectilinear trajectory must fail")
	}
	// Hyperbolic speed at LEO radius.
	if _, err := ElementsFromRV(geo.Vec3{X: 7000}, geo.Vec3{Y: 20}, geo.Epoch); err == nil {
		t.Errorf("hyperbolic orbit must fail")
	}
	// Circular equatorial: well-defined anomaly, zero Ω/ω.
	r := geo.Vec3{X: 7000}
	vc := math.Sqrt(geo.EarthMu / 7000)
	el, err := ElementsFromRV(r, geo.Vec3{Y: vc}, geo.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if el.RAANRad != 0 || el.ArgPerigeeRad != 0 {
		t.Errorf("circular equatorial should fold angles: Ω=%v ω=%v", el.RAANRad, el.ArgPerigeeRad)
	}
	if !almostEq(el.SemiMajorKm, 7000, 1e-6) || el.Eccentricity > 1e-9 {
		t.Errorf("circular equatorial recovery: a=%v e=%v", el.SemiMajorKm, el.Eccentricity)
	}
	// Retrograde circular equatorial (i = 180°): node vector vanishes too.
	el, err = ElementsFromRV(r, geo.Vec3{Y: -vc}, geo.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(el.InclinationRad, math.Pi, 1e-9) {
		t.Errorf("retrograde inclination = %v, want π", el.InclinationRad)
	}
}
