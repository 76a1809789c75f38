package constellation

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"leosim/internal/geo"
	"leosim/internal/orbit"
	"leosim/internal/safe"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPresetSizes(t *testing.T) {
	if n := StarlinkPhase1().Size(); n != 1584 {
		t.Errorf("Starlink phase 1 = %d sats, want 1584", n)
	}
	if n := KuiperPhase1().Size(); n != 1156 {
		t.Errorf("Kuiper phase 1 = %d sats, want 1156", n)
	}
	for _, sh := range []Shell{StarlinkPhase1(), KuiperPhase1(), PolarShell(), TestShell()} {
		if err := sh.Validate(); err != nil {
			t.Errorf("%s: %v", sh.Name, err)
		}
	}
}

func TestShellValidate(t *testing.T) {
	bad := StarlinkPhase1()
	bad.Planes = 0
	if bad.Validate() == nil {
		t.Errorf("zero planes must fail")
	}
	bad = StarlinkPhase1()
	bad.AltitudeKm = 2500
	if bad.Validate() == nil {
		t.Errorf("altitude above LEO must fail")
	}
	bad = StarlinkPhase1()
	bad.MinElevationDeg = 95
	if bad.Validate() == nil {
		t.Errorf("bad elevation must fail")
	}
}

func TestNewConstellation(t *testing.T) {
	c, err := New([]Shell{TestShell()}, WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 64 {
		t.Fatalf("size = %d, want 64", c.Size())
	}
	// +Grid: 2 ISLs per satellite (each link shared by 2) → 2N links.
	if got, want := len(c.ISLs), 2*64; got != want {
		t.Errorf("ISL count = %d, want %d", got, want)
	}
	// Every satellite has exactly 4 ISLs.
	deg := make(map[int]int)
	for _, l := range c.ISLs {
		deg[l.A]++
		deg[l.B]++
		if l.A >= l.B {
			t.Fatalf("ISL not ordered: %+v", l)
		}
	}
	for i := 0; i < c.Size(); i++ {
		if deg[i] != 4 {
			t.Errorf("sat %d has %d ISLs, want 4", i, deg[i])
		}
	}
}

func TestNewWithoutISLs(t *testing.T) {
	c, err := New([]Shell{TestShell()})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ISLs) != 0 {
		t.Errorf("BP constellation must have no ISLs")
	}
}

func TestSeamOmission(t *testing.T) {
	with, _ := New([]Shell{TestShell()}, WithISLs())
	without, _ := New([]Shell{TestShell()}, WithISLs(), WithoutSeamISLs())
	// Omitting the seam removes SatsPerPlane cross-plane links.
	if got, want := len(with.ISLs)-len(without.ISLs), TestShell().SatsPerPlane; got != want {
		t.Errorf("seam links removed = %d, want %d", got, want)
	}
}

func TestPolarShellNoSeam(t *testing.T) {
	// A 180° star shell never wraps plane ISLs around the seam.
	c, err := New([]Shell{PolarShell()}, WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	sh := PolarShell()
	last := sh.Planes - 1
	for _, l := range c.ISLs {
		pa := c.Sats[l.A].Plane
		pb := c.Sats[l.B].Plane
		if (pa == 0 && pb == last) || (pa == last && pb == 0) {
			t.Fatalf("star shell has seam link %+v", l)
		}
	}
}

func TestSatIndexRoundTrip(t *testing.T) {
	c, err := New([]Shell{TestShell(), PolarShell()})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Sats {
		if got := c.SatIndex(s.ShellIndex, s.Plane, s.Slot); got != s.Index {
			t.Fatalf("SatIndex(%d,%d,%d) = %d, want %d",
				s.ShellIndex, s.Plane, s.Slot, got, s.Index)
		}
	}
	if c.ShellOf(0).Name != "test-8x8" {
		t.Errorf("ShellOf(0) = %q", c.ShellOf(0).Name)
	}
	if c.ShellOf(c.Size()-1).Name != "polar" {
		t.Errorf("ShellOf(last) = %q", c.ShellOf(c.Size()-1).Name)
	}
}

func TestPositionsAltitudeAndSpread(t *testing.T) {
	c, err := New([]Shell{TestShell()})
	if err != nil {
		t.Fatal(err)
	}
	pos := c.PositionsECEF(geo.Epoch.Add(31 * time.Minute))
	for i, p := range pos {
		alt := p.Norm() - geo.EarthRadius
		if !almostEq(alt, 550, 2) {
			t.Fatalf("sat %d altitude = %v", i, alt)
		}
	}
	// Satellites must be spread out, not bunched: min pairwise distance of
	// a healthy Walker shell is hundreds of km.
	min := math.Inf(1)
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			min = math.Min(min, pos[i].Distance(pos[j]))
		}
	}
	if min < 100 {
		t.Errorf("min satellite separation = %v km — shell is bunched", min)
	}
}

func TestStarlinkISLGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("full Starlink shell in -short mode")
	}
	c, err := New([]Shell{StarlinkPhase1()}, WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	st := c.StatsAt(geo.Epoch)
	if st.Count != 2*1584 {
		t.Errorf("ISL count = %d, want %d", st.Count, 2*1584)
	}
	// Intra-plane neighbor spacing at 550 km: 2·(R+h)·sin(π/22) ≈ 986 km.
	wantIntra := 2 * (geo.EarthRadius + 550) * math.Sin(math.Pi/22)
	if st.MaxKm < wantIntra-50 || st.MaxKm > 2100 {
		t.Errorf("max ISL length = %v km", st.MaxKm)
	}
	if st.MinKm < 20 {
		t.Errorf("min ISL length = %v km, implausibly short", st.MinKm)
	}
	// §2: +Grid ISLs easily stay above the lower atmosphere (~80 km).
	if st.LinksBelowAtmosphereKm != 0 {
		t.Errorf("%d ISLs dip below 80 km", st.LinksBelowAtmosphereKm)
	}
	if st.MinLinkAltitudeKm < 400 {
		t.Errorf("min ISL altitude = %v km, want ≥ 400", st.MinLinkAltitudeKm)
	}
}

func TestSnapshotsAdvanceSatellites(t *testing.T) {
	c, err := New([]Shell{TestShell()})
	if err != nil {
		t.Fatal(err)
	}
	snaps := []Snapshot{c.SnapshotAt(geo.Epoch), c.SnapshotAt(geo.Epoch.Add(15 * time.Minute))}
	if !snaps[1].Time.Equal(geo.Epoch.Add(15 * time.Minute)) {
		t.Errorf("snapshot time = %v", snaps[1].Time)
	}
	// Satellites move ~7.6 km/s → ≈6,800 km in 15 min.
	d := snaps[0].Pos[0].Distance(snaps[1].Pos[0])
	if d < 4000 || d > 9000 {
		t.Errorf("satellite moved %v km in 15 min", d)
	}
}

// How far WithSGP4's satellites may sit from their J2-secular Kepler
// counterparts over the simulated day, per component of the Kepler
// satellite's radial / along-track / cross-track (RTN) frame. Radial is the
// component the code depends on: check.NewGeometry's SGP4 RadiusTolKm (30 km)
// must dominate sgp4RadialTolKm. Along-track is the two models' secular drift
// apart, which grows over the day.
const (
	sgp4RadialTolKm     = 10
	sgp4AlongTrackTolKm = 100
	sgp4CrossTrackTolKm = 5
)

// TestWithSGP4MatchesKeplerCoarsely propagates both paper shells for 24 h in
// 5-minute steps with WithSGP4 and with the default Kepler propagator, and
// holds every satellite's SGP4 position to the RTN bounds above.
func TestWithSGP4MatchesKeplerCoarsely(t *testing.T) {
	for _, sh := range []Shell{StarlinkPhase1(), KuiperPhase1()} {
		t.Run(sh.Name, func(t *testing.T) {
			kep, err := New([]Shell{sh})
			if err != nil {
				t.Fatal(err)
			}
			sg, err := New([]Shell{sh}, WithSGP4())
			if err != nil {
				t.Fatal(err)
			}
			var maxR, maxT, maxN float64
			var totalAt []string
			for m := 0; m <= 24*60; m += 5 {
				at := geo.Epoch.Add(time.Duration(m) * time.Minute)
				total := 0.0
				for i := range kep.Sats {
					r, v := kep.Sats[i].Prop.(*orbit.KeplerPropagator).PosVelECI(at)
					d := sg.Sats[i].Prop.PositionECI(at).Sub(r)
					rHat := r.Unit()
					nHat := r.Cross(v).Unit()
					tHat := nHat.Cross(rHat)
					maxR = math.Max(maxR, math.Abs(d.Dot(rHat)))
					maxT = math.Max(maxT, math.Abs(d.Dot(tHat)))
					maxN = math.Max(maxN, math.Abs(d.Dot(nHat)))
					total = math.Max(total, d.Norm())
				}
				if m == 60 || m == 6*60 || m == 24*60 {
					totalAt = append(totalAt, fmt.Sprintf("%dh %.1f km", m/60, total))
				}
			}
			t.Logf("%d sats, max |error| radial %.2f km, along-track %.2f km, cross-track %.2f km; total at %s",
				len(kep.Sats), maxR, maxT, maxN, strings.Join(totalAt, ", "))
			if maxR > sgp4RadialTolKm {
				t.Errorf("radial error %.2f km exceeds %d km", maxR, sgp4RadialTolKm)
			}
			if maxT > sgp4AlongTrackTolKm {
				t.Errorf("along-track error %.2f km exceeds %d km", maxT, sgp4AlongTrackTolKm)
			}
			if maxN > sgp4CrossTrackTolKm {
				t.Errorf("cross-track error %.2f km exceeds %d km", maxN, sgp4CrossTrackTolKm)
			}
		})
	}
}

func TestShellTLEs(t *testing.T) {
	sh := TestShell()
	lines := sh.TLEs(100, geo.Epoch)
	if len(lines) != 2*sh.Size() {
		t.Fatalf("got %d lines, want %d", len(lines), 2*sh.Size())
	}
	tle, err := orbit.ParseTLE(lines[0], lines[1])
	if err != nil {
		t.Fatalf("generated TLE does not parse: %v", err)
	}
	if tle.SatNum != 100 {
		t.Errorf("satnum = %d", tle.SatNum)
	}
	if _, err := orbit.NewSGP4(tle); err != nil {
		t.Errorf("generated TLE does not initialize SGP4: %v", err)
	}
}

func TestSegmentMinAltitude(t *testing.T) {
	// Two satellites on opposite sides: the chord passes through the Earth.
	a := geo.LatLon{Lat: 0, Lon: 0, Alt: 550}.ToECEF()
	b := geo.LatLon{Lat: 0, Lon: 180, Alt: 550}.ToECEF()
	if alt := geo.SegmentMinAltitudeKm(a, b); alt > -6000 {
		t.Errorf("antipodal chord min altitude = %v, want ≈ −6371", alt)
	}
	// Adjacent satellites: chord stays near orbital altitude.
	c := geo.LatLon{Lat: 0, Lon: 5, Alt: 550}.ToECEF()
	if alt := geo.SegmentMinAltitudeKm(a, c); alt < 500 || alt > 551 {
		t.Errorf("neighbor chord min altitude = %v", alt)
	}
	// Degenerate: both endpoints equal.
	if alt := geo.SegmentMinAltitudeKm(a, a); !almostEq(alt, 550, 1e-6) {
		t.Errorf("degenerate chord altitude = %v", alt)
	}
}

func TestNewRejectsEmptyAndInvalid(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Errorf("empty shell list must fail")
	}
	bad := TestShell()
	bad.AltitudeKm = -5
	if _, err := New([]Shell{bad}); err == nil {
		t.Errorf("invalid shell must fail")
	}
}

func TestStatsAtNoISLs(t *testing.T) {
	c, err := New([]Shell{TestShell()})
	if err != nil {
		t.Fatal(err)
	}
	st := c.StatsAt(geo.Epoch)
	if st.Count != 0 || st.MinKm != 0 || st.MinLinkAltitudeKm != 0 {
		t.Errorf("BP constellation ISL stats should be zero: %+v", st)
	}
}

func TestISLLengthAndAltitudeHelpers(t *testing.T) {
	c, err := New([]Shell{TestShell()}, WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	s := c.SnapshotAt(geo.Epoch)
	l := c.ISLs[0]
	if d := ISLLengthKm(s, l); d <= 0 || d > 12000 {
		t.Errorf("ISL length = %v", d)
	}
	// The sparse 8-per-plane test shell legitimately dips its intra-plane
	// chords near the surface (45° spacing); only consistency with the
	// chord helper is asserted here — the ≥80 km atmosphere constraint is
	// checked on the real Starlink shell in TestStarlinkISLGeometry.
	if a := ISLMinAltitudeKm(s, l); !almostEq(a, geo.SegmentMinAltitudeKm(s.Pos[l.A], s.Pos[l.B]), 1e-9) {
		t.Errorf("ISLMinAltitudeKm inconsistent with geo.SegmentMinAltitudeKm")
	}
}

// TestPositionsAreOnePathAtAnyParallelism: PositionsECEFInto is, bit for bit,
// the serial loop of each satellite's PositionECI rotated by -GMST(t), for
// analytic and SGP4 fleets alike, however many processors its range fan-out
// spreads over.
func TestPositionsAreOnePathAtAnyParallelism(t *testing.T) {
	kepler, err := New([]Shell{StarlinkPhase1()})
	if err != nil {
		t.Fatal(err)
	}
	sgp4, err := New([]Shell{StarlinkPhase1()}, WithSGP4())
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, c := range map[string]*Constellation{"kepler": kepler, "sgp4": sgp4} {
		for _, dt := range []time.Duration{0, time.Second, 97 * time.Minute, 13 * time.Hour, 40 * 24 * time.Hour} {
			at := geo.Epoch.Add(dt)
			want := make([]geo.Vec3, c.Size())
			for i, s := range c.Sats {
				want[i] = geo.RotateZ(s.Prop.PositionECI(at), -geo.GMST(at))
			}
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				got := c.PositionsECEFInto(at, nil)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s at +%v, GOMAXPROCS %d: satellite %d at %v, serial loop %v",
							name, dt, procs, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func sameBits(a, b geo.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// panicProp is a propagator that fails on every call.
type panicProp struct{}

func (panicProp) PositionECI(time.Time) geo.Vec3  { panic("propagator exploded") }
func (panicProp) PositionECEF(time.Time) geo.Vec3 { panic("propagator exploded") }

// TestPositionsPanicIsPanicError: a propagator panicking on a fan-out worker
// reaches PositionsECEFInto's caller as a *safe.PanicError, not as a dead
// process.
func TestPositionsPanicIsPanicError(t *testing.T) {
	c := &Constellation{Sats: make([]Satellite, 200)}
	for i := range c.Sats {
		c.Sats[i].Prop = panicProp{}
	}
	defer func() {
		pe, ok := recover().(*safe.PanicError)
		if !ok || pe.Value != "propagator exploded" {
			t.Fatalf("recovered %#v, want a *safe.PanicError", pe)
		}
	}()
	c.PositionsECEFInto(geo.Epoch, nil)
}
