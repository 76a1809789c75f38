package check

import (
	"math"
	"sort"
	"testing"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/ground"
	"leosim/internal/orbit"
)

// Metamorphic tests: transform the whole system in a way physics says is a
// symmetry, and require the observable outputs to be unchanged. These need
// no reference values at all — the system is compared against itself.

func testShell(offsetDeg float64) constellation.Shell {
	return constellation.Shell{
		Name: "meta", Planes: 8, SatsPerPlane: 8,
		AltitudeKm: 780, InclinationDeg: 60, WalkerF: 3,
		RAANSpreadDeg: 360, RAANOffsetDeg: offsetDeg, MinElevationDeg: 12,
	}
}

var testCities = []ground.City{
	{Name: "Tokyo", Lat: 35.68, Lon: 139.69, Pop: 37},
	{Name: "New York", Lat: 40.71, Lon: -74.01, Pop: 19},
	{Name: "London", Lat: 51.51, Lon: -0.13, Pop: 9},
	{Name: "São Paulo", Lat: -23.55, Lon: -46.63, Pop: 22},
	{Name: "Sydney", Lat: -33.87, Lon: 151.21, Pop: 5},
	{Name: "Lagos", Lat: 6.52, Lon: 3.38, Pop: 13},
}

// rotatedSystem builds the snapshot graph of the test system with the whole
// geometry — every orbital plane and every city — rotated east by deltaDeg.
func rotatedSystem(t *testing.T, deltaDeg float64, at time.Time) *graph.Network {
	t.Helper()
	c, err := constellation.New([]constellation.Shell{testShell(deltaDeg)},
		constellation.WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	cities := make([]ground.City, len(testCities))
	copy(cities, testCities)
	for i := range cities {
		lon := cities[i].Lon + deltaDeg
		for lon >= 180 {
			lon -= 360
		}
		cities[i].Lon = lon
	}
	seg, err := ground.NewSegment(cities, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.NewBuilder(c, seg, nil, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return b.Hybrid(b.At(at), at)
}

// TestRotationInvariance rotates the entire system — RAAN of every plane and
// longitude of every city — by the same angle. That is a rigid rotation of
// all positions about the Earth's axis, so every pairwise distance, and
// therefore every shortest-path latency, must be preserved (up to
// floating-point rotation noise).
func TestRotationInvariance(t *testing.T) {
	at := geo.Epoch.Add(23 * time.Minute)
	base := rotatedSystem(t, 0, at)
	for _, delta := range []float64{37.25, 180, 301.5} {
		rot := rotatedSystem(t, delta, at)
		if base.N() != rot.N() || len(base.Links) != len(rot.Links) {
			t.Fatalf("Δ=%v: topology changed: %d/%d nodes, %d/%d links",
				delta, base.N(), rot.N(), len(base.Links), len(rot.Links))
		}
		var got, want []float64
		for a := 0; a < len(testCities); a++ {
			for b := a + 1; b < len(testCities); b++ {
				if p, ok := base.ShortestPath(base.CityNode(a), base.CityNode(b)); ok {
					want = append(want, p.OneWayMs)
				}
				if p, ok := rot.ShortestPath(rot.CityNode(a), rot.CityNode(b)); ok {
					got = append(got, p.OneWayMs)
				}
			}
		}
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("Δ=%v: reachability changed: %d vs %d pairs", delta, len(want), len(got))
		}
		sort.Float64s(got)
		sort.Float64s(want)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				t.Fatalf("Δ=%v: latency[%d] %.9f ms vs %.9f ms", delta, i, got[i], want[i])
			}
		}
	}
}

// TestOrbitalPeriodShiftISLInvariance advances time by exactly one nodal
// revolution — the period of the argument of latitude under J2 (Kepler mean
// motion plus the secular mean-anomaly and perigee drifts). Every satellite
// returns to the same phase within its (precessed) plane, and since all
// planes of a shell precess at the same rate, every inter-satellite distance
// must be exactly what it was.
func TestOrbitalPeriodShiftISLInvariance(t *testing.T) {
	sh := testShell(0)
	c, err := constellation.New([]constellation.Shell{sh}, constellation.WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	el := orbit.Circular(sh.AltitudeKm, sh.InclinationDeg, 0, 0, geo.Epoch)
	n := el.MeanMotion()
	ratio := geo.EarthEquatorialRadius / el.SemiMajorKm
	ci := math.Cos(el.InclinationRad)
	mDot := 0.75 * orbit.J2 * ratio * ratio * n * (3*ci*ci - 1)
	uDot := n + mDot + el.ArgPerigeePrecessionRate()
	period := time.Duration(2 * math.Pi / uDot * float64(time.Second))

	t0 := geo.Epoch.Add(41 * time.Minute)
	s0 := c.SnapshotAt(t0)
	s1 := c.SnapshotAt(t0.Add(period))
	for _, l := range c.ISLs {
		d0 := constellation.ISLLengthKm(s0, l)
		d1 := constellation.ISLLengthKm(s1, l)
		if math.Abs(d0-d1) > 1e-4 {
			t.Fatalf("ISL %d-%d: %.9f km at t0, %.9f km one revolution later",
				l.A, l.B, d0, d1)
		}
	}
	// Guard against a vacuous pass: a quarter revolution later the
	// cross-plane links must NOT all be back at their t0 lengths.
	sq := c.SnapshotAt(t0.Add(period / 4))
	moved := false
	for _, l := range c.ISLs {
		if math.Abs(constellation.ISLLengthKm(s0, l)-constellation.ISLLengthKm(sq, l)) > 1 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("no ISL length changed over a quarter revolution; test is vacuous")
	}
}
