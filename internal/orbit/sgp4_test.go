package orbit

import (
	"math"
	"testing"
	"time"

	"leosim/internal/geo"
)

func issSGP4(t *testing.T) *SGP4 {
	t.Helper()
	tle, err := ParseTLE(issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSGP4(tle)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSGP4ISSAtEpoch(t *testing.T) {
	s := issSGP4(t)
	r, v, err := s.PosVelECI(s.epoch)
	if err != nil {
		t.Fatal(err)
	}
	// 2008-era ISS: ~350 km circular orbit, speed ~7.7 km/s.
	alt := r.Norm() - sgp4Re
	if alt < 330 || alt > 370 {
		t.Errorf("altitude at epoch = %v km, want ≈350", alt)
	}
	if sp := v.Norm(); sp < 7.6 || sp < 7.0 || sp > 7.8 {
		t.Errorf("speed = %v km/s, want ≈7.7", sp)
	}
	// Velocity nearly orthogonal to position for the near-circular orbit.
	if ang := r.AngleTo(v) * geo.Rad; math.Abs(ang-90) > 0.2 {
		t.Errorf("r·v angle = %v°, want ≈90°", ang)
	}
}

func TestSGP4RadiusStaysNearCircular(t *testing.T) {
	s := issSGP4(t)
	for m := 0; m <= 1440; m += 15 {
		at := s.epoch.Add(time.Duration(m) * time.Minute)
		r, _, err := s.PosVelECI(at)
		if err != nil {
			t.Fatalf("propagate %dmin: %v", m, err)
		}
		alt := r.Norm() - sgp4Re
		if alt < 320 || alt > 380 {
			t.Fatalf("altitude at %dmin = %v km", m, alt)
		}
	}
}

func TestSGP4InclinationBound(t *testing.T) {
	s := issSGP4(t)
	for m := 0; m <= 200; m += 2 {
		at := s.epoch.Add(time.Duration(m) * time.Minute)
		p := geo.FromECEF(s.PositionECEF(at))
		if math.Abs(p.Lat) > 51.8 {
			t.Fatalf("latitude %v exceeds inclination 51.64 (+margin)", p.Lat)
		}
	}
}

func TestSGP4PeriodMatchesMeanMotion(t *testing.T) {
	s := issSGP4(t)
	// Find two successive ascending Equator crossings (Z sign change with
	// positive Z velocity) and compare the gap against 1440/n minutes.
	wantMin := 1440.0 / 15.72125391
	var crossings []float64
	prevZ := math.NaN()
	for m := 0.0; m <= 200 && len(crossings) < 2; m += 0.05 {
		r, _, err := s.posVelAt(m)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsNaN(prevZ) && prevZ < 0 && r.Z >= 0 {
			crossings = append(crossings, m)
		}
		prevZ = r.Z
	}
	if len(crossings) < 2 {
		t.Fatal("did not observe two ascending node crossings")
	}
	period := crossings[1] - crossings[0]
	// The nodal period differs from the Keplerian period by the J2 nodal
	// terms (< 0.1 min here).
	if math.Abs(period-wantMin) > 0.2 {
		t.Errorf("nodal period = %v min, want ≈%v", period, wantMin)
	}
}

func TestSGP4NodeRegressionMatchesJ2(t *testing.T) {
	// The RAAN drift produced by SGP4 must match the analytic J2 rate.
	tle := TLE{
		SatNum:         1,
		Epoch:          geo.Epoch,
		InclinationDeg: 53,
		Eccentricity:   0.0001,
		MeanMotion:     15.05, // ≈550 km
	}
	s, err := NewSGP4(tle)
	if err != nil {
		t.Fatal(err)
	}
	analytic := tle.Elements().NodePrecessionRate() * 86400 * geo.Rad // deg/day
	got := s.nodedot * 1440 * geo.Rad                                 // rad/min → deg/day
	if math.Abs(got-analytic) > 0.15 {
		t.Errorf("SGP4 node rate %v°/day vs analytic J2 %v°/day", got, analytic)
	}
}

func TestSGP4AgreesWithKeplerShortTerm(t *testing.T) {
	// Over tens of minutes, SGP4 and the J2-secular Kepler propagator
	// should agree to within the J2 short-period amplitude (~10–20 km).
	tle := TLE{
		SatNum:         7,
		Epoch:          geo.Epoch,
		InclinationDeg: 53,
		RAANDeg:        42,
		Eccentricity:   0.0001,
		ArgPerigeeDeg:  0,
		MeanAnomalyDeg: 0,
		MeanMotion:     15.05,
	}
	s, err := NewSGP4(tle)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKepler(tle.Elements())
	for m := 0; m <= 60; m += 10 {
		at := geo.Epoch.Add(time.Duration(m) * time.Minute)
		rs, _, err := s.PosVelECI(at)
		if err != nil {
			t.Fatal(err)
		}
		rk := k.PositionECI(at)
		if d := rs.Distance(rk); d > 60 {
			t.Fatalf("SGP4 vs Kepler at %dmin: %v km apart", m, d)
		}
	}
}

func TestSGP4RejectsDeepSpace(t *testing.T) {
	gso := TLE{SatNum: 2, Epoch: geo.Epoch, MeanMotion: 1.0027} // geosynchronous
	if _, err := NewSGP4(gso); err == nil {
		t.Errorf("deep-space orbit must be rejected")
	}
}

func TestSGP4RejectsBadElements(t *testing.T) {
	if _, err := NewSGP4(TLE{MeanMotion: 0}); err == nil {
		t.Errorf("zero mean motion must be rejected")
	}
	if _, err := NewSGP4(TLE{MeanMotion: 15, Eccentricity: 1.2}); err == nil {
		t.Errorf("eccentricity ≥ 1 must be rejected")
	}
}

func TestSGP4DetectsDecay(t *testing.T) {
	// A very low orbit with a huge drag term decays within days.
	tle := TLE{
		SatNum:         3,
		Epoch:          geo.Epoch,
		InclinationDeg: 53,
		Eccentricity:   0.001,
		MeanMotion:     16.4, // ≈180 km altitude
		BStar:          0.1,
	}
	s, err := NewSGP4(tle)
	if err != nil {
		t.Fatal(err)
	}
	decayed := false
	for d := 0; d <= 30; d++ {
		_, _, err := s.PosVelECI(geo.Epoch.Add(time.Duration(d) * 24 * time.Hour))
		if err != nil {
			decayed = true
			break
		}
	}
	if !decayed {
		t.Errorf("expected decay error within 30 days for extreme drag")
	}
	// PositionECI degrades to a zero vector instead of panicking.
	if p := s.PositionECI(geo.Epoch.Add(300 * 24 * time.Hour)); p != (geo.Vec3{}) {
		// decay may or may not trigger exactly here; only check no panic
		_ = p
	}
}

func TestSGP4Deterministic(t *testing.T) {
	s1 := issSGP4(t)
	s2 := issSGP4(t)
	at := s1.epoch.Add(97 * time.Minute)
	p1, _, _ := s1.PosVelECI(at)
	p2, _, _ := s2.PosVelECI(at)
	if p1 != p2 {
		t.Errorf("SGP4 must be deterministic: %v vs %v", p1, p2)
	}
}
