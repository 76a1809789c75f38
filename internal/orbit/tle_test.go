package orbit

import (
	"math"
	"strings"
	"testing"
	"time"

	"leosim/internal/geo"
)

// A historical ISS TLE (epoch 2008-09-20), widely used as an SGP4 test case.
const (
	issLine1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
	issLine2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"
)

func TestParseTLEISS(t *testing.T) {
	tle, err := ParseTLE(issLine1, issLine2)
	if err != nil {
		t.Fatalf("ParseTLE: %v", err)
	}
	if tle.SatNum != 25544 {
		t.Errorf("satnum = %d", tle.SatNum)
	}
	if !almostEq(tle.InclinationDeg, 51.6416, 1e-9) {
		t.Errorf("inclination = %v", tle.InclinationDeg)
	}
	if !almostEq(tle.Eccentricity, 0.0006703, 1e-12) {
		t.Errorf("eccentricity = %v", tle.Eccentricity)
	}
	if !almostEq(tle.MeanMotion, 15.72125391, 1e-8) {
		t.Errorf("mean motion = %v", tle.MeanMotion)
	}
	if !almostEq(tle.BStar, -0.11606e-4, 1e-12) {
		t.Errorf("bstar = %v", tle.BStar)
	}
	if !almostEq(tle.NDot, -0.00002182, 1e-12) {
		t.Errorf("ndot = %v", tle.NDot)
	}
	wantEpoch := time.Date(2008, 9, 20, 0, 0, 0, 0, time.UTC).
		Add(time.Duration(0.51782528 * 86400 * float64(time.Second)))
	if d := tle.Epoch.Sub(wantEpoch); d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("epoch = %v, want %v", tle.Epoch, wantEpoch)
	}
	// ISS altitude ≈ 350 km in 2008.
	if alt := tle.SemiMajorKm() - geo.EarthRadius; alt < 330 || alt > 370 {
		t.Errorf("ISS altitude = %v km", alt)
	}
}

func TestParseTLEWithName(t *testing.T) {
	tle, err := ParseTLE("ISS (ZARYA)", issLine1, issLine2)
	if err != nil {
		t.Fatalf("ParseTLE: %v", err)
	}
	if tle.Name != "ISS (ZARYA)" {
		t.Errorf("name = %q", tle.Name)
	}
}

func TestParseTLEErrors(t *testing.T) {
	if _, err := ParseTLE(issLine1); err == nil {
		t.Errorf("single line must fail")
	}
	if _, err := ParseTLE("garbage", "more garbage"); err == nil {
		t.Errorf("short lines must fail")
	}
	// Corrupt the checksum digit.
	bad := issLine1[:68] + "9"
	if _, err := ParseTLE(bad, issLine2); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("bad checksum must fail, got %v", err)
	}
	// Swap the line-number characters.
	if _, err := ParseTLE(issLine2, issLine1); err == nil {
		t.Errorf("swapped lines must fail")
	}
}

func TestChecksum(t *testing.T) {
	if c := checksum(issLine1); c != 7 {
		t.Errorf("line1 checksum = %d, want 7", c)
	}
	if c := checksum(issLine2); c != 7 {
		t.Errorf("line2 checksum = %d, want 7", c)
	}
}

func TestParseImpliedDecimal(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{" 00000-0", 0},
		{" 00000+0", 0},
		{"-11606-4", -0.11606e-4},
		{" 12345-3", 0.12345e-3},
		{" 13844-3", 0.13844e-3},
		{" 66816-4", 0.66816e-4},
	}
	for _, c := range cases {
		got, err := parseImpliedDecimal(c.in)
		if err != nil {
			t.Errorf("parseImpliedDecimal(%q): %v", c.in, err)
			continue
		}
		if !almostEq(got, c.want, math.Abs(c.want)*1e-12+1e-18) {
			t.Errorf("parseImpliedDecimal(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTLEFormatRoundTrip(t *testing.T) {
	orig := TLE{
		SatNum:         44713,
		Epoch:          time.Date(2020, 3, 1, 6, 30, 0, 0, time.UTC),
		InclinationDeg: 53.0001,
		RAANDeg:        211.4568,
		Eccentricity:   0.0001342,
		ArgPerigeeDeg:  87.6543,
		MeanAnomalyDeg: 272.5001,
		MeanMotion:     15.05563400,
		BStar:          -0.34619e-4,
		ElsetNo:        999,
		RevNum:         2292,
	}
	l1, l2 := orig.Format()
	if len(l1) != 69 || len(l2) != 69 {
		t.Fatalf("formatted lengths %d/%d, want 69/69\n%q\n%q", len(l1), len(l2), l1, l2)
	}
	back, err := ParseTLE(l1, l2)
	if err != nil {
		t.Fatalf("re-parse: %v\n%q\n%q", err, l1, l2)
	}
	if back.SatNum != orig.SatNum || back.RevNum != orig.RevNum || back.ElsetNo != orig.ElsetNo {
		t.Errorf("integer fields mismatch: %+v", back)
	}
	if !almostEq(back.InclinationDeg, orig.InclinationDeg, 1e-4) ||
		!almostEq(back.RAANDeg, orig.RAANDeg, 1e-4) ||
		!almostEq(back.Eccentricity, orig.Eccentricity, 1e-7) ||
		!almostEq(back.ArgPerigeeDeg, orig.ArgPerigeeDeg, 1e-4) ||
		!almostEq(back.MeanAnomalyDeg, orig.MeanAnomalyDeg, 1e-4) ||
		!almostEq(back.MeanMotion, orig.MeanMotion, 1e-8) {
		t.Errorf("element fields mismatch: %+v vs %+v", back, orig)
	}
	if !almostEq(back.BStar, orig.BStar, 1e-10) {
		t.Errorf("bstar = %v, want %v", back.BStar, orig.BStar)
	}
	if d := back.Epoch.Sub(orig.Epoch); d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("epoch = %v, want %v", back.Epoch, orig.Epoch)
	}
}

func TestEpochYearWindow(t *testing.T) {
	// Year 57 and later map to the 1900s.
	tle := TLE{SatNum: 1, Epoch: time.Date(1958, 2, 1, 0, 0, 0, 0, time.UTC), MeanMotion: 15}
	l1, l2 := tle.Format()
	back, err := ParseTLE(l1, l2)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if back.Epoch.Year() != 1958 {
		t.Errorf("epoch year = %d, want 1958", back.Epoch.Year())
	}
}

func TestTLEElements(t *testing.T) {
	tle, err := ParseTLE(issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	el := tle.Elements()
	if err := el.Validate(); err != nil {
		t.Fatalf("elements invalid: %v", err)
	}
	if !almostEq(el.InclinationRad*geo.Rad, 51.6416, 1e-9) {
		t.Errorf("inclination = %v", el.InclinationRad*geo.Rad)
	}
	// Period from mean motion: 1440/15.72 ≈ 91.6 minutes.
	if p := period(el).Minutes(); !almostEq(p, 1440/15.72125391, 0.1) {
		t.Errorf("period = %v min", p)
	}
}

func TestTLEValidateRejectsCorruption(t *testing.T) {
	good := TLE{SatNum: 1, Epoch: geo.Epoch, InclinationDeg: 53,
		Eccentricity: 0.001, MeanMotion: 15}
	mutations := []func(*TLE){
		func(t *TLE) { t.MeanMotion = 25 },
		func(t *TLE) { t.MeanMotion = 0 },
		func(t *TLE) { t.InclinationDeg = 200 },
		func(t *TLE) { t.RAANDeg = 400 },
		func(t *TLE) { t.ArgPerigeeDeg = -5 },
		func(t *TLE) { t.MeanAnomalyDeg = 360 },
		func(t *TLE) { t.Eccentricity = 1.5 },
		func(t *TLE) { t.SatNum = -1 },
		func(t *TLE) { t.NDot = 2 },
		func(t *TLE) { t.BStar = 3 },
	}
	if err := good.validate(); err != nil {
		t.Fatalf("good TLE rejected: %v", err)
	}
	for i, mut := range mutations {
		bad := good
		mut(&bad)
		if bad.validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestParseTLERejectsSubSurfaceOrbit: mean motions inside the format's
// (0,20] rev/day range can still put the orbit underground — 17.2 rev/day is
// a ≈ 6,339 km, 19.0 is a ≈ 5,932 km — and such a set must not parse.
func TestParseTLERejectsSubSurfaceOrbit(t *testing.T) {
	for _, mm := range []float64{17.2, 19.0} {
		l1, l2 := (TLE{SatNum: 1, Epoch: geo.Epoch, InclinationDeg: 53,
			Eccentricity: 0.0001, MeanMotion: mm}).Format()
		_, err := ParseTLE(l1, l2)
		if err == nil || !strings.Contains(err.Error(), "perigee") {
			t.Errorf("mean motion %v rev/day: err = %v, want a perigee error", mm, err)
		}
	}
}

func TestParseEpochRejectsBadDay(t *testing.T) {
	if _, err := parseEpoch("20400.00000000"); err == nil {
		t.Errorf("day 400 accepted")
	}
	if _, err := parseEpoch("20000.50000000"); err == nil {
		t.Errorf("day 0 accepted")
	}
}
