package graph

import (
	"math"
	"testing"
	"time"

	"leosim/internal/aircraft"
	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/ground"
)

func testSetup(t *testing.T, isl bool) (*Builder, *Network) {
	t.Helper()
	c, err := constellation.New([]constellation.Shell{constellation.StarlinkPhase1()},
		constellation.WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	cities, err := ground.Cities(40)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ground.NewSegment(cities, 4, 1500)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := aircraft.NewFleet(0.3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(c, seg, fleet, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	at := geo.Epoch.Add(6 * time.Hour)
	n := b.At(at)
	if isl {
		n = b.Hybrid(n, at)
	}
	return b, n
}

func TestBuilderNodeLayout(t *testing.T) {
	_, n := testSetup(t, true)
	if n.NumSat != 1584 {
		t.Errorf("NumSat = %d", n.NumSat)
	}
	if n.NumCity != 40 {
		t.Errorf("NumCity = %d", n.NumCity)
	}
	if n.NumRelay == 0 || n.NumAircraft == 0 {
		t.Errorf("relays=%d aircraft=%d — both expected", n.NumRelay, n.NumAircraft)
	}
	if n.N() != n.NumSat+n.NumCity+n.NumRelay+n.NumAircraft {
		t.Errorf("node count mismatch")
	}
	for i := 0; i < n.NumSat; i++ {
		if n.Kind[i] != NodeSatellite {
			t.Fatalf("node %d should be a satellite", i)
		}
	}
	if n.Kind[n.CityNode(0)] != NodeCity {
		t.Errorf("CityNode(0) kind = %v", n.Kind[n.CityNode(0)])
	}
	if !n.IsGroundSide(n.CityNode(0)) || n.IsGroundSide(n.SatNode(0)) {
		t.Errorf("IsGroundSide misclassifies")
	}
}

// TestBuildAtIsSized: At sizes its node and link slices from counts it has
// before the first append, and a derived hybrid network copies the links into
// an exactly-sized list of its own while sharing the base's node arrays — so
// what lands in a cache carries no growth slack and no second copy of the
// nodes, with aircraft and ISLs, and under a beam cap.
func TestBuildAtIsSized(t *testing.T) {
	b, _ := testSetup(t, true)
	at := geo.Epoch.Add(6 * time.Hour)
	for _, label := range []string{"default", "beam-cap"} {
		base := b.At(at)
		hy := b.Hybrid(base, at)
		for kind, n := range map[string]*Network{"base": base, "hybrid": hy} {
			if n.NumAircraft == 0 || len(n.Links) == 0 {
				t.Fatalf("%s %s: %d aircraft, %d links — both expected", label, kind, n.NumAircraft, len(n.Links))
			}
			if cap(n.Kind) != len(n.Kind) || cap(n.Pos) != len(n.Pos) || cap(n.Name) != len(n.Name) {
				t.Errorf("%s %s: node slices cap/len = %d/%d %d/%d %d/%d", label, kind, cap(n.Kind), len(n.Kind),
					cap(n.Pos), len(n.Pos), cap(n.Name), len(n.Name))
			}
			if cap(n.Links) != len(n.Links) {
				t.Errorf("%s %s: Links cap %d, len %d", label, kind, cap(n.Links), len(n.Links))
			}
		}
		if len(hy.Links) != len(base.Links)+len(b.Const.ISLs) {
			t.Errorf("%s: hybrid has %d links, want the base's %d + %d ISLs", label, len(hy.Links), len(base.Links), len(b.Const.ISLs))
		}
		if &hy.Kind[0] != &base.Kind[0] || &hy.Pos[0] != &base.Pos[0] || &hy.Name[0] != &base.Name[0] {
			t.Errorf("%s: hybrid does not share the base's node arrays", label)
		}
		if &hy.Links[0] == &base.Links[0] {
			t.Errorf("%s: hybrid aliases the base's link list", label)
		}
		b.Opts.MaxGSLsPerSatellite = 3
	}
}

func TestBuilderGSLGeometry(t *testing.T) {
	_, n := testSetup(t, false)
	sh := constellation.StarlinkPhase1()
	maxLen := sh.MaxGSLKm() + 30 // aircraft altitude slack
	gsl := 0
	for _, l := range n.Links {
		if l.Kind != LinkGSL {
			t.Fatalf("BP network has non-GSL link")
		}
		gsl++
		// One endpoint satellite, one terminal.
		if (n.Kind[l.A] == NodeSatellite) == (n.Kind[l.B] == NodeSatellite) {
			t.Fatalf("GSL between %v and %v", n.Kind[l.A], n.Kind[l.B])
		}
		d := n.Pos[l.A].Distance(n.Pos[l.B])
		if d > maxLen {
			t.Fatalf("GSL length %v km exceeds max %v", d, maxLen)
		}
		if l.CapGbps != 20 {
			t.Fatalf("GSL capacity = %v", l.CapGbps)
		}
		// Verify the elevation constraint holds exactly.
		term, sat := l.A, l.B
		if n.Kind[term] == NodeSatellite {
			term, sat = sat, term
		}
		if el := geo.Elevation(n.Pos[term], n.Pos[sat]); el < sh.MinElevationDeg-1e-6 {
			t.Fatalf("GSL below min elevation: %v", el)
		}
	}
	if gsl == 0 {
		t.Fatal("no GSLs built")
	}
}

func TestBuilderVisibilityMatchesBruteForce(t *testing.T) {
	// The spatial index must find exactly the satellites that brute-force
	// elevation checks find, for a sample of terminals.
	b, n := testSetup(t, false)
	sh := constellation.StarlinkPhase1()
	satPos := n.Pos[:n.NumSat]
	for ti := 0; ti < 10; ti++ {
		term := n.CityNode(ti)
		want := map[int32]bool{}
		for si, sp := range satPos {
			if geo.Elevation(n.Pos[term], sp) >= sh.MinElevationDeg {
				want[int32(si)] = true
			}
		}
		got := map[int32]bool{}
		for _, l := range n.Links {
			if l.A == term {
				got[l.B] = true
			} else if l.B == term {
				got[l.A] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("terminal %d: index found %d sats, brute force %d",
				ti, len(got), len(want))
		}
		for s := range want {
			if !got[s] {
				t.Fatalf("terminal %d: missed satellite %d", ti, s)
			}
		}
	}
	_ = b
}

func TestBuilderISLToggle(t *testing.T) {
	_, bp := testSetup(t, false)
	_, hy := testSetup(t, true)
	bpISL, hyISL := 0, 0
	for _, l := range bp.Links {
		if l.Kind == LinkISL {
			bpISL++
		}
	}
	for _, l := range hy.Links {
		if l.Kind == LinkISL {
			hyISL++
			if l.CapGbps != 100 {
				t.Fatalf("ISL capacity = %v", l.CapGbps)
			}
		}
	}
	if bpISL != 0 {
		t.Errorf("BP network has %d ISLs", bpISL)
	}
	if hyISL != 2*1584 {
		t.Errorf("hybrid network has %d ISLs, want %d", hyISL, 2*1584)
	}
}

func TestHybridConnectsEverything(t *testing.T) {
	_, hy := testSetup(t, true)
	comp, _ := View{N: hy}.Components()
	// All satellites are one component via ISLs; all cities reach it.
	c0 := comp[0]
	for i := 0; i < hy.NumSat; i++ {
		if comp[i] != c0 {
			t.Fatalf("satellite %d outside ISL component", i)
		}
	}
	for i := 0; i < hy.NumCity; i++ {
		if comp[hy.CityNode(i)] != c0 {
			t.Errorf("city %d disconnected from constellation", i)
		}
	}
}

func TestBPDisconnectsSomeSatellites(t *testing.T) {
	// §5: with BP only, a large fraction of satellites (over oceans,
	// away from any GT) is disconnected.
	_, bp := testSetup(t, false)
	comp, _ := View{N: bp}.Components()
	// Find the giant component via city 0.
	main := comp[bp.CityNode(0)]
	isolated := 0
	for i := 0; i < bp.NumSat; i++ {
		if comp[i] != main {
			isolated++
		}
	}
	if isolated == 0 {
		t.Errorf("BP graph connects every satellite — implausible")
	}
}

func TestBuilderEndToEndPath(t *testing.T) {
	_, hy := testSetup(t, true)
	// City 0 and city 1 are both attached; a path must exist and start/end
	// with GSLs.
	p, ok := hy.ShortestPath(hy.CityNode(0), hy.CityNode(1))
	if !ok {
		t.Fatal("no path between top cities on hybrid network")
	}
	if p.Hops() < 2 {
		t.Fatalf("path too short: %d hops", p.Hops())
	}
	if hy.Links[p.Links[0]].Kind != LinkGSL || hy.Links[p.Links[len(p.Links)-1]].Kind != LinkGSL {
		t.Errorf("path must start and end on radio hops")
	}
	// The RTT must beat neither the geodesic bound nor be absurd.
	a := geo.FromECEF(hy.Pos[hy.CityNode(0)])
	b := geo.FromECEF(hy.Pos[hy.CityNode(1)])
	cBound := geo.MinRTTOverSurface(a, b)
	if p.RTTMs() < cBound*0.95 {
		t.Errorf("RTT %v ms beats the geodesic c-bound %v ms", p.RTTMs(), cBound)
	}
	if p.RTTMs() > cBound*5+50 {
		t.Errorf("RTT %v ms absurdly above c-bound %v ms", p.RTTMs(), cBound)
	}
}

func TestBuilderGSOOption(t *testing.T) {
	c, _ := constellation.New([]constellation.Shell{constellation.TestShell()})
	// One equatorial city, no relays.
	seg, err := ground.NewSegment([]ground.City{{Name: "Quito-ish", Lat: 0, Lon: -78, Pop: 2}}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := NewBuilder(c, seg, nil, DefaultOptions())
	opts := DefaultOptions()
	opts.GSO = ground.StarlinkGSOPolicy()
	constrained, _ := NewBuilder(c, seg, nil, opts)
	// Count GSLs over a day: GSO avoidance must strictly reduce them.
	var nPlain, nCon int
	for h := 0; h < 24; h++ {
		at := geo.Epoch.Add(time.Duration(h) * time.Hour)
		nPlain += len(plain.At(at).Links)
		nCon += len(constrained.At(at).Links)
	}
	if nCon >= nPlain {
		t.Errorf("GSO constraint did not reduce equatorial GSLs: %d vs %d", nCon, nPlain)
	}
	if nCon == 0 {
		t.Errorf("GSO constraint removed all links — too aggressive")
	}
}

func TestBuilderElevationOverride(t *testing.T) {
	c, _ := constellation.New([]constellation.Shell{constellation.StarlinkPhase1()})
	cities, _ := ground.Cities(10)
	seg, _ := ground.NewSegment(cities, 0, 0)
	lo, _ := NewBuilder(c, seg, nil, DefaultOptions())
	opts := DefaultOptions()
	opts.MinElevationOverrideDeg = 40
	hi, _ := NewBuilder(c, seg, nil, opts)
	nLo := len(lo.At(geo.Epoch).Links)
	nHi := len(hi.At(geo.Epoch).Links)
	if nHi >= nLo {
		t.Errorf("40° min elevation should reduce GSLs: %d vs %d", nHi, nLo)
	}
}

func TestNewBuilderValidation(t *testing.T) {
	c, _ := constellation.New([]constellation.Shell{constellation.TestShell()})
	cities, _ := ground.Cities(5)
	seg, _ := ground.NewSegment(cities, 0, 0)
	if _, err := NewBuilder(nil, seg, nil, DefaultOptions()); err == nil {
		t.Errorf("nil constellation must fail")
	}
	if _, err := NewBuilder(c, nil, nil, DefaultOptions()); err == nil {
		t.Errorf("nil segment must fail")
	}
	bad := DefaultOptions()
	bad.GSLCapGbps = 0
	if _, err := NewBuilder(c, seg, nil, bad); err == nil {
		t.Errorf("zero GSL capacity must fail")
	}
	bad = DefaultOptions()
	bad.ISLCapGbps = -1
	if _, err := NewBuilder(c, seg, nil, bad); err == nil {
		t.Errorf("negative ISL capacity must fail")
	}
}

func TestSatIndexPolarTerminal(t *testing.T) {
	// A terminal near the pole must still find satellites (full-ring scan).
	c, _ := constellation.New([]constellation.Shell{constellation.PolarShell()})
	seg, _ := ground.NewSegment([]ground.City{{Name: "Alert-ish", Lat: 82, Lon: -60, Pop: 0.1}}, 0, 0)
	b, _ := NewBuilder(c, seg, nil, DefaultOptions())
	found := false
	for m := 0; m < 60 && !found; m += 5 {
		n := b.At(geo.Epoch.Add(time.Duration(m) * time.Minute))
		if len(n.Links) > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("polar terminal never sees a polar-shell satellite")
	}
}

func TestGSLDelayConsistency(t *testing.T) {
	_, n := testSetup(t, false)
	for _, l := range n.Links[:min(200, len(n.Links))] {
		want := n.Pos[l.A].Distance(n.Pos[l.B]) / geo.LightSpeed * 1000
		if math.Abs(l.OneWayMs-want) > 1e-9 {
			t.Fatalf("link delay %v, want %v", l.OneWayMs, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
