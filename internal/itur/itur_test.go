package itur

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func kuLink(lat, lon, elev float64) LinkParams {
	return LinkParams{
		LatDeg: lat, LonDeg: lon, ElevationDeg: elev,
		FreqGHz: 14.25, Pol: PolCircular,
	}
}

func TestClimatologyShape(t *testing.T) {
	// Wet tropics, drier mid-latitudes, dry poles.
	tropics := RainRate001(5, 100)
	midlat := RainRate001(48, 10)
	polar := RainRate001(80, 0)
	if !(tropics > midlat && midlat > polar) {
		t.Errorf("rain rates not ordered: %v %v %v", tropics, midlat, polar)
	}
	if tropics < 50 || tropics > 120 {
		t.Errorf("tropical R0.01 = %v, want 50–120 mm/h", tropics)
	}
	if polar > 15 {
		t.Errorf("polar R0.01 = %v, want small", polar)
	}
	// Rain height flat in tropics, decreasing poleward.
	if RainHeightKm(0) != RainHeightKm(20) {
		t.Errorf("tropical rain height should be flat")
	}
	if RainHeightKm(60) >= RainHeightKm(30) {
		t.Errorf("rain height should decrease poleward")
	}
	if RainHeightKm(89) < 0.5-1e-9 {
		t.Errorf("rain height floor violated")
	}
	// Vapour and Nwet both decrease with |lat|.
	for _, f := range []func(float64) float64{WaterVapourDensity, WetRefractivity} {
		if !(f(0) > f(45) && f(45) > f(85)) {
			t.Errorf("climatology profile not decreasing with latitude")
		}
	}
}

func TestColumnarCloudWater(t *testing.T) {
	// More cloud water at smaller exceedance probabilities.
	if ColumnarCloudWater(10, 0, 0.1) <= ColumnarCloudWater(10, 0, 1) {
		t.Errorf("cloud water must grow as p shrinks")
	}
	// Capped.
	if ColumnarCloudWater(0, 0, 0.0001) > 6 {
		t.Errorf("cloud water cap violated")
	}
}

func TestRainCoefficients(t *testing.T) {
	// Table endpoints reproduce exactly.
	k, a := RainCoefficients(12, PolH)
	if !almostEq(k, 0.02386, 1e-9) || !almostEq(a, 1.1825, 1e-9) {
		t.Errorf("12 GHz H: k=%v α=%v", k, a)
	}
	// Interpolated values are bracketed by neighbors.
	k13, _ := RainCoefficients(13.5, PolH)
	k12, _ := RainCoefficients(12, PolH)
	k15, _ := RainCoefficients(15, PolH)
	if !(k12 < k13 && k13 < k15) {
		t.Errorf("k not monotone across 12–15 GHz: %v %v %v", k12, k13, k15)
	}
	// Circular polarization sits between H and V.
	kh, _ := RainCoefficients(14.25, PolH)
	kv, _ := RainCoefficients(14.25, PolV)
	kc, _ := RainCoefficients(14.25, PolCircular)
	lo, hi := math.Min(kh, kv), math.Max(kh, kv)
	if kc < lo || kc > hi {
		t.Errorf("circular k=%v outside [%v,%v]", kc, lo, hi)
	}
	// Clamping outside [1,100].
	kLow, _ := RainCoefficients(0.1, PolH)
	k1, _ := RainCoefficients(1, PolH)
	if kLow != k1 {
		t.Errorf("frequency clamp low failed")
	}
}

func TestRainSpecificAttenuationMagnitude(t *testing.T) {
	// Ku-band at tropical rain rates: single-digit dB/km.
	g := RainSpecificAttenuation(14.25, PolCircular, 90)
	if g < 2 || g > 12 {
		t.Errorf("γ_R(14.25 GHz, 90 mm/h) = %v dB/km, want ≈ 2–12", g)
	}
	// Higher frequency → more attenuation.
	if RainSpecificAttenuation(30, PolCircular, 50) <= RainSpecificAttenuation(11.7, PolCircular, 50) {
		t.Errorf("Ka must attenuate more than Ku")
	}
}

func TestRainAttenuationBehaviour(t *testing.T) {
	lp := kuLink(5, 100, 40) // tropical link
	a05, err := RainAttenuation(lp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a001, _ := RainAttenuation(lp, 0.01)
	a5, _ := RainAttenuation(lp, 5)
	if !(a001 > a05 && a05 > a5) {
		t.Errorf("rain attenuation not decreasing in p: %v %v %v", a001, a05, a5)
	}
	if a05 < 0.5 || a05 > 40 {
		t.Errorf("tropical Ku A(0.5%%) = %v dB — implausible", a05)
	}
	// Dry high latitude link attenuates much less.
	dry := kuLink(65, 20, 40)
	aDry, _ := RainAttenuation(dry, 0.5)
	if aDry >= a05 {
		t.Errorf("dry link %v ≥ tropical %v", aDry, a05)
	}
	// Lower elevation → longer path through rain → more attenuation.
	steep := kuLink(5, 100, 80)
	aSteep, _ := RainAttenuation(steep, 0.5)
	if aSteep >= a05 {
		t.Errorf("steeper link should attenuate less: %v vs %v", aSteep, a05)
	}
}

func TestRainAttenuationAircraftAboveRain(t *testing.T) {
	lp := kuLink(5, 100, 40)
	lp.StationHeightKm = 11
	a, err := RainAttenuation(lp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 {
		t.Errorf("aircraft above rain height should see no rain attenuation, got %v", a)
	}
	c, _ := CloudAttenuation(lp, 0.5)
	if c != 0 {
		t.Errorf("aircraft above clouds should see no cloud attenuation, got %v", c)
	}
	s, _ := ScintillationAttenuation(lp, 0.5)
	if s != 0 {
		t.Errorf("aircraft should see no tropospheric scintillation, got %v", s)
	}
}

func TestRainAttenuationValidation(t *testing.T) {
	lp := kuLink(5, 100, 40)
	if _, err := RainAttenuation(lp, 50); err == nil {
		t.Errorf("p=50 outside range must error")
	}
	bad := lp
	bad.FreqGHz = 0
	if _, err := RainAttenuation(bad, 0.5); err == nil {
		t.Errorf("zero frequency must error")
	}
	bad = lp
	bad.ElevationDeg = 0
	if _, err := TotalAttenuation(bad, 0.5); err == nil {
		t.Errorf("zero elevation must error")
	}
}

func TestGaseousAttenuationMagnitude(t *testing.T) {
	a, err := GaseousAttenuation(kuLink(5, 100, 40))
	if err != nil {
		t.Fatal(err)
	}
	// Ku-band gaseous attenuation at 40° elevation: tenths of a dB.
	if a < 0.05 || a > 2 {
		t.Errorf("gaseous attenuation = %v dB", a)
	}
	// Near the 22 GHz water line it grows.
	wet := kuLink(5, 100, 40)
	wet.FreqGHz = 22.2
	aw, _ := GaseousAttenuation(wet)
	if aw <= a {
		t.Errorf("22 GHz should exceed 14 GHz gaseous attenuation")
	}
}

func TestScintillationMagnitude(t *testing.T) {
	s, err := ScintillationAttenuation(kuLink(5, 100, 40), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.05 || s > 3 {
		t.Errorf("scintillation = %v dB at p=0.5%%", s)
	}
	// Lower elevation → stronger scintillation.
	s10, _ := ScintillationAttenuation(kuLink(5, 100, 25), 0.5)
	if s10 <= s {
		t.Errorf("lower elevation should scintillate more")
	}
}

func TestTotalAttenuationCombination(t *testing.T) {
	lp := kuLink(5, 100, 40)
	total, err := TotalAttenuation(lp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ag, _ := GaseousAttenuation(lp)
	ar, _ := RainAttenuation(lp, 0.5)
	ac, _ := CloudAttenuation(lp, 0.5)
	// Total must be at least gas + rain and at most the plain sum of all.
	if total < ag+ar-1e-9 {
		t.Errorf("total %v < gas+rain %v", total, ag+ar)
	}
	as, _ := ScintillationAttenuation(lp, 0.5)
	if total > ag+ar+ac+as+1e-9 {
		t.Errorf("total %v exceeds the linear sum", total)
	}
}

func TestReceivedPowerFraction(t *testing.T) {
	// §6: 1 dB ≈ 11% reduction → 79.4% received... wait: 1 dB → 10^-0.1 = 0.794.
	// The paper's "11% reduction in received power" refers to ≈0.5 dB; the
	// function itself must match the dB definition exactly.
	if !almostEq(ReceivedPowerFraction(1), 0.7943, 1e-3) {
		t.Errorf("1 dB → %v", ReceivedPowerFraction(1))
	}
	if !almostEq(ReceivedPowerFraction(3), 0.5012, 1e-3) {
		t.Errorf("3 dB → %v", ReceivedPowerFraction(3))
	}
	if ReceivedPowerFraction(0) != 1 {
		t.Errorf("0 dB → %v", ReceivedPowerFraction(0))
	}
	// §6 Fig 8: 5 dB → ≈32% received... no: 10^-0.5 = 0.316. The paper says
	// 5 dB ⇒ 44%+? It reports power fractions per link; we just pin dB math.
	if !almostEq(ReceivedPowerFraction(5), 0.3162, 1e-3) {
		t.Errorf("5 dB → %v", ReceivedPowerFraction(5))
	}
}

func TestCurveMonotoneProperty(t *testing.T) {
	f := func(latRaw, lonRaw, elevRaw float64) bool {
		lat := math.Mod(math.Abs(latRaw), 70)
		lon := math.Mod(lonRaw, 180)
		elev := 10 + math.Mod(math.Abs(elevRaw), 79)
		if math.IsNaN(lat) || math.IsNaN(lon) || math.IsNaN(elev) {
			return true
		}
		c, err := NewCurve(kuLink(lat, lon, elev))
		if err != nil {
			return false
		}
		for i := 1; i < len(c.A); i++ {
			if c.A[i] > c.A[i-1]+1e-9 {
				return false
			}
			if c.A[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCurveAtAndInverse(t *testing.T) {
	c, err := NewCurve(kuLink(5, 100, 40))
	if err != nil {
		t.Fatal(err)
	}
	// At() reproduces grid points.
	for i, p := range c.P {
		if !almostEq(c.At(p), c.A[i], 1e-9) {
			t.Errorf("At(%v) = %v, want %v", p, c.At(p), c.A[i])
		}
	}
	// Inverse round-trips within the grid.
	for _, p := range []float64{0.05, 0.5, 1, 3} {
		x := c.At(p)
		back := c.ExceedanceAt(x)
		if math.Abs(math.Log(back/p)) > 0.25 {
			t.Errorf("inverse(%v dB) = %v%%, want ≈%v%%", x, back, p)
		}
	}
	// Clamping beyond the grid.
	if c.At(0.0001) != c.A[0] {
		t.Errorf("At below grid should clamp")
	}
	if c.ExceedanceAt(c.A[0]+100) != c.P[0] {
		t.Errorf("huge attenuation exceeded only at min p")
	}
	if c.ExceedanceAt(-1) != c.P[len(c.P)-1] {
		t.Errorf("negative attenuation exceeded at max p")
	}
}

func TestWorstOf(t *testing.T) {
	wet, _ := NewCurve(kuLink(5, 100, 25))
	dry, _ := NewCurve(kuLink(65, 20, 80))
	w := WorstOf(wet, dry)
	for i, p := range w.P {
		want := math.Max(wet.At(p), dry.At(p))
		if !almostEq(w.A[i], want, 1e-9) {
			t.Errorf("WorstOf at %v%% = %v, want %v", p, w.A[i], want)
		}
	}
	// Zero curve is the identity element.
	same := WorstOf(wet, ZeroCurve())
	for i := range same.A {
		if !almostEq(same.A[i], wet.A[i], 1e-9) {
			t.Errorf("WorstOf with zero changed the curve")
		}
	}
}

func TestCombineOverTimeIdentical(t *testing.T) {
	c, _ := NewCurve(kuLink(5, 100, 40))
	comb := CombineOverTime([]Curve{c, c, c})
	// Combining identical snapshots returns (approximately) the same curve.
	for _, p := range []float64{0.1, 0.5, 1, 3} {
		if math.Abs(comb.At(p)-c.At(p)) > 0.15*c.At(p)+0.05 {
			t.Errorf("combine of identical curves at %v%%: %v vs %v", p, comb.At(p), c.At(p))
		}
	}
}

func TestCombineOverTimeMixture(t *testing.T) {
	wet, _ := NewCurve(kuLink(5, 100, 25))
	dry, _ := NewCurve(kuLink(65, 20, 80))
	comb := CombineOverTime([]Curve{wet, dry})
	// The mixture sits between the two at every probability.
	for _, p := range []float64{0.1, 0.5, 1} {
		lo := math.Min(wet.At(p), dry.At(p))
		hi := math.Max(wet.At(p), dry.At(p))
		got := comb.At(p)
		if got < lo-0.2 || got > hi+0.2 {
			t.Errorf("mixture at %v%% = %v outside [%v,%v]", p, got, lo, hi)
		}
	}
	if len(CombineOverTime(nil).A) == 0 {
		t.Errorf("empty combine should return zero curve")
	}
}

func TestRainAttenuationLowElevation(t *testing.T) {
	// Below 5° elevation the slant-path formula switches to the low-angle
	// branch; it must remain finite, positive and larger than at 10°.
	low := kuLink(5, 100, 3)
	a3, err := RainAttenuation(low, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	a10, _ := RainAttenuation(kuLink(5, 100, 10), 0.5)
	if a3 <= a10 {
		t.Errorf("3° attenuation %v should exceed 10° %v", a3, a10)
	}
	if a3 > 100 || math.IsNaN(a3) || math.IsInf(a3, 0) {
		t.Errorf("low-elevation attenuation degenerate: %v", a3)
	}
}

func TestClampF(t *testing.T) {
	if clampF(-1, 0, 5) != 0 || clampF(9, 0, 5) != 5 || clampF(3, 0, 5) != 3 {
		t.Errorf("clampF branches wrong")
	}
}

func TestHighLatitudeStationAboveRain(t *testing.T) {
	// A high-latitude station above the local rain height sees no rain.
	lp := kuLink(88, 0, 40)
	lp.StationHeightKm = 1.0 // rain height floor is 0.5 km at the poles
	a, err := RainAttenuation(lp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 {
		t.Errorf("station above rain height should see 0, got %v", a)
	}
}
