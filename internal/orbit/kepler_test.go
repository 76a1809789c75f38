package orbit

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"leosim/internal/geo"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSolveKepler(t *testing.T) {
	// e=0: E == M.
	if e := SolveKepler(1.234, 0); e != 1.234 {
		t.Errorf("circular E = %v, want 1.234", e)
	}
	// Residual must vanish for a range of eccentricities and anomalies.
	for _, ecc := range []float64{0, 1e-4, 0.01, 0.1, 0.5, 0.9} {
		for m := 0.0; m < 2*math.Pi; m += 0.37 {
			e := SolveKepler(m, ecc)
			res := e - ecc*math.Sin(e) - m
			// SolveKepler normalizes M into [0,2π); compare modulo 2π.
			res = math.Mod(res, 2*math.Pi)
			if math.Abs(res) > 1e-10 && math.Abs(math.Abs(res)-2*math.Pi) > 1e-10 {
				t.Errorf("residual %v for e=%v M=%v", res, ecc, m)
			}
		}
	}
}

func TestSolveKeplerProperty(t *testing.T) {
	f := func(m, e float64) bool {
		m = math.Mod(math.Abs(m), 2*math.Pi)
		e = math.Mod(math.Abs(e), 0.95)
		if math.IsNaN(m) || math.IsNaN(e) {
			return true
		}
		ea := SolveKepler(m, e)
		return math.Abs(ea-e*math.Sin(ea)-m) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrueAnomalyCircular(t *testing.T) {
	for ea := -3.0; ea < 3; ea += 0.5 {
		if nu := TrueAnomaly(ea, 0); !almostEq(nu, math.Atan2(math.Sin(ea), math.Cos(ea)), 1e-12) {
			t.Errorf("circular true anomaly %v != E %v", nu, ea)
		}
	}
}

// period is the two-body orbital period 2π/n.
func period(el Elements) time.Duration {
	return time.Duration(2 * math.Pi / el.MeanMotion() * float64(time.Second))
}

func TestElementsBasics(t *testing.T) {
	el := Circular(550, 53, 10, 20, geo.Epoch)
	if err := el.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !almostEq((el.SemiMajorKm - geo.EarthRadius), 550, 1e-9) {
		t.Errorf("altitude = %v", (el.SemiMajorKm - geo.EarthRadius))
	}
	// Orbital period at 550 km is about 95.6 minutes (~5737 s).
	if p := period(el).Seconds(); !almostEq(p, 5737, 10) {
		t.Errorf("period = %v s, want ≈5737", p)
	}
	// "each with an orbital period of ~100 minutes" (§2).
	if p := period(el).Minutes(); p < 90 || p > 105 {
		t.Errorf("period = %v min, want ~100", p)
	}
}

func TestElementsValidate(t *testing.T) {
	bad := Elements{SemiMajorKm: geo.EarthRadius + 100, Eccentricity: 0.5}
	if bad.Validate() == nil {
		t.Errorf("perigee below surface must fail validation")
	}
	if (Elements{SemiMajorKm: 7000, Eccentricity: 1.5}).Validate() == nil {
		t.Errorf("hyperbolic eccentricity must fail validation")
	}
	if (Elements{SemiMajorKm: 7000, InclinationRad: 4}).Validate() == nil {
		t.Errorf("inclination > π must fail validation")
	}
}

func TestNodePrecessionStarlink(t *testing.T) {
	// J2 node regression for 550 km / 53° is ≈ −4.5°/day.
	el := Circular(550, 53, 0, 0, geo.Epoch)
	perDay := el.NodePrecessionRate() * 86400 * geo.Rad
	if !almostEq(perDay, -4.5, 0.1) {
		t.Errorf("node precession = %v°/day, want ≈ −4.5", perDay)
	}
	// Polar orbits do not precess; retrograde precess forward.
	polar := Circular(550, 90, 0, 0, geo.Epoch)
	if r := polar.NodePrecessionRate(); math.Abs(r) > 1e-18 {
		t.Errorf("polar precession = %v, want 0", r)
	}
	retro := Circular(550, 97.6, 0, 0, geo.Epoch)
	if retro.NodePrecessionRate() <= 0 {
		t.Errorf("retrograde orbit should precess eastward")
	}
}

func TestKeplerPropagatorCircularGeometry(t *testing.T) {
	el := Circular(550, 53, 30, 0, geo.Epoch)
	k := NewKepler(el)
	for m := 0; m <= 100; m += 5 {
		at := geo.Epoch.Add(time.Duration(m) * time.Minute)
		r := k.PositionECI(at).Norm()
		if !almostEq(r, el.SemiMajorKm, 0.5) {
			t.Fatalf("radius at %dmin = %v, want %v", m, r, el.SemiMajorKm)
		}
		// Latitude never exceeds inclination for a circular orbit.
		lat := geo.FromECEF(k.PositionECEF(at)).Lat
		if math.Abs(lat) > 53.01 {
			t.Fatalf("latitude %v exceeds inclination", lat)
		}
	}
}

func TestKeplerPropagatorPeriod(t *testing.T) {
	el := Circular(550, 53, 0, 0, geo.Epoch)
	k := &KeplerPropagator{El: el} // no J2 so pure two-body period
	p0 := k.PositionECI(geo.Epoch)
	after := geo.Epoch.Add(period(el))
	p1 := k.PositionECI(after)
	if d := p0.Distance(p1); d > 10 {
		t.Errorf("position after one period moved %v km, want < 10", d)
	}
}

func TestKeplerPropagatorVelocity(t *testing.T) {
	el := Circular(550, 53, 0, 0, geo.Epoch)
	k := NewKepler(el)
	_, v := k.PosVelECI(geo.Epoch)
	// Circular speed v = sqrt(mu/a) ≈ 7.59 km/s at 550 km.
	want := math.Sqrt(geo.EarthMu / el.SemiMajorKm)
	if !almostEq(v.Norm(), want, 0.01) {
		t.Errorf("speed = %v, want %v", v.Norm(), want)
	}
	// Velocity is orthogonal to position for a circular orbit.
	p, v := k.PosVelECI(geo.Epoch.Add(17 * time.Minute))
	if ang := p.AngleTo(v); !almostEq(ang, math.Pi/2, 1e-6) {
		t.Errorf("r·v angle = %v, want π/2", ang)
	}
}

func TestKeplerJ2NodeDrift(t *testing.T) {
	// Over a day, the J2-secular propagator must regress the node by the
	// analytic rate, visible as a longitude shift of the ascending-node
	// crossing relative to the non-J2 run.
	el := Circular(550, 53, 0, 0, geo.Epoch)
	withJ2 := NewKepler(el)
	noJ2 := &KeplerPropagator{El: el}
	day := geo.Epoch.Add(24 * time.Hour)
	d := withJ2.PositionECI(day).Distance(noJ2.PositionECI(day))
	// −5°/day at orbit radius ≈ 600 km displacement; J2 also changes the
	// in-track rate, so just require a substantial, bounded difference.
	if d < 100 || d > 4000 {
		t.Errorf("J2 displacement after a day = %v km, want 100–4000", d)
	}
}

func TestEllipticalOrbitRadiusRange(t *testing.T) {
	el := Elements{
		SemiMajorKm:    geo.EarthRadius + 800,
		Eccentricity:   0.02,
		InclinationRad: 60 * geo.Deg,
		Epoch:          geo.Epoch,
	}
	k := &KeplerPropagator{El: el}
	minR, maxR := math.Inf(1), math.Inf(-1)
	for m := 0; m < 110; m++ {
		r := k.PositionECI(geo.Epoch.Add(time.Duration(m) * time.Minute)).Norm()
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	peri := el.SemiMajorKm * (1 - el.Eccentricity)
	apo := el.SemiMajorKm * (1 + el.Eccentricity)
	if !almostEq(minR, peri, 2) || !almostEq(maxR, apo, 2) {
		t.Errorf("radius range [%v,%v], want [%v,%v]", minR, maxR, peri, apo)
	}
}

func TestSubsatellitePoint(t *testing.T) {
	el := Circular(550, 53, 0, 0, geo.Epoch)
	k := NewKepler(el)
	p := SubsatellitePoint(k, geo.Epoch)
	if !almostEq(p.Alt, 550, 1) {
		t.Errorf("subsatellite altitude = %v", p.Alt)
	}
}

func TestGroundTrackCoversInclinationBand(t *testing.T) {
	el := Circular(550, 53, 0, 0, geo.Epoch)
	k := NewKepler(el)
	maxLat := 0.0
	for m := 0; m < 100; m++ {
		lat := math.Abs(SubsatellitePoint(k, geo.Epoch.Add(time.Duration(m)*time.Minute)).Lat)
		maxLat = math.Max(maxLat, lat)
	}
	if !almostEq(maxLat, 53, 1.5) {
		t.Errorf("max |lat| over an orbit = %v, want ≈ 53", maxLat)
	}
}
