package ground

import (
	"math"
	"testing"

	"leosim/internal/geo"
)

func TestIsLandKnownPoints(t *testing.T) {
	land := []struct {
		name     string
		lat, lon float64
	}{
		{"central US", 39, -98},
		{"Amazon", -5, -60},
		{"Sahara", 23, 10},
		{"Siberia", 60, 100},
		{"central Australia", -25, 134},
		{"India", 22, 78},
		{"central Europe", 50, 10},
		{"China", 35, 105},
		{"southern Africa", -25, 25},
	}
	for _, c := range land {
		if !IsLand(c.lat, c.lon) {
			t.Errorf("%s (%v,%v) should be land", c.name, c.lat, c.lon)
		}
	}
	water := []struct {
		name     string
		lat, lon float64
	}{
		{"mid North Atlantic", 45, -35},
		{"mid South Atlantic", -25, -15},
		{"central Pacific", 0, -150},
		{"Indian Ocean", -20, 80},
		{"Southern Ocean", -60, 0},
		{"Arctic Ocean", 87, 0},
		{"Tasman Sea", -38, 160},
		{"Gulf of Guinea", 0, 0},
	}
	for _, c := range water {
		if !IsWater(c.lat, c.lon) {
			t.Errorf("%s (%v,%v) should be water", c.name, c.lat, c.lon)
		}
	}
}

// pointInPolygon is the even-odd ray-casting rule on the lon/lat plane, one
// point at a time — the reference the scanline raster is held to.
func pointInPolygon(lon, lat float64, poly polygon) bool {
	in := false
	n := len(poly)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		xi, yi := poly[i][0], poly[i][1]
		xj, yj := poly[j][0], poly[j][1]
		if (yi > lat) != (yj > lat) &&
			lon < (xj-xi)*(lat-yi)/(yj-yi)+xi {
			in = !in
		}
	}
	return in
}

// isLandExact evaluates the polygons directly (no raster).
func isLandExact(lat, lon float64) bool {
	for _, poly := range continents {
		if pointInPolygon(lon, lat, poly) {
			return true
		}
	}
	return false
}

// TestMaskMatchesPolygons holds every cell of the scanline raster to the
// per-point rule at the cell centre, and the area-weighted land fraction to
// the value the per-cell rasterization produced, to the last bit.
func TestMaskMatchesPolygons(t *testing.T) {
	IsLand(0, 0) // build the raster
	for r := 0; r < maskRows; r++ {
		lat := -90 + (float64(r)+0.5)*maskRes
		for c := 0; c < maskCols; c++ {
			lon := -180 + (float64(c)+0.5)*maskRes
			if got, want := mask[r*maskCols+c], isLandExact(lat, lon); got != want {
				t.Fatalf("cell (%d,%d) centre (%v,%v): raster says land=%v, polygons say %v", r, c, lat, lon, got, want)
			}
		}
	}
	if f := LandFraction(); math.Float64bits(f) != 0x3fd15c7f396e9665 {
		t.Fatalf("LandFraction = %v (%#x), want 0.27127056702224756 (0x3fd15c7f396e9665)", f, math.Float64bits(f))
	}
}

func TestLandFraction(t *testing.T) {
	// Earth's land fraction is ≈0.29; the coarse mask must be in a sane
	// neighborhood or every downstream experiment distorts.
	f := LandFraction()
	if f < 0.20 || f > 0.40 {
		t.Errorf("land fraction = %.3f, want ≈0.29", f)
	}
}

func TestAnchorCitiesOnLand(t *testing.T) {
	// Anchor coordinates must fall on the coarse mask's land (coastal
	// cities tolerate one neighboring cell).
	coastalOK := func(lat, lon float64) bool {
		for _, d := range [][2]float64{{0, 0}, {0.5, 0}, {-0.5, 0}, {0, 0.5}, {0, -0.5}, {0.5, 0.5}, {-0.5, -0.5}, {0.5, -0.5}, {-0.5, 0.5}, {0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
			if IsLand(lat+d[0], lon+d[1]) {
				return true
			}
		}
		return false
	}
	for _, c := range anchorCities {
		switch c.Name {
		case "Honolulu", "Singapore", "Hong Kong", "Kingston", "San Juan",
			"Dakar", "Suva", "Nouméa", "Christchurch":
			continue // small islands/peninsulas below mask resolution
		}
		if !coastalOK(c.Lat, c.Lon) {
			t.Errorf("anchor %s (%v,%v) not on coarse land mask", c.Name, c.Lat, c.Lon)
		}
	}
}

func TestAnchorCitiesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range anchorCities {
		if !geo.LL(c.Lat, c.Lon).Valid() {
			t.Errorf("%s has invalid coordinates", c.Name)
		}
		if c.Pop <= 0 {
			t.Errorf("%s has non-positive population", c.Name)
		}
		if seen[c.Name] {
			t.Errorf("duplicate anchor city %q", c.Name)
		}
		seen[c.Name] = true
	}
	if len(anchorCities) < 200 {
		t.Errorf("only %d anchor cities, want ≥ 200", len(anchorCities))
	}
}

func TestCitiesGeneration(t *testing.T) {
	cities, err := Cities(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cities) != 1000 {
		t.Fatalf("got %d cities", len(cities))
	}
	// Sorted by descending population, Tokyo first.
	if cities[0].Name != "Tokyo" {
		t.Errorf("largest city = %s, want Tokyo", cities[0].Name)
	}
	for i := 1; i < len(cities); i++ {
		if cities[i].Pop > cities[i-1].Pop {
			t.Fatalf("cities not sorted by population at %d", i)
		}
	}
	// Deterministic.
	again, _ := Cities(1000)
	for i := range cities {
		if cities[i] != again[i] {
			t.Fatalf("city generation not deterministic at %d: %+v vs %+v",
				i, cities[i], again[i])
		}
	}
	// Hemisphere/continent spread: all four lon/lat quadrants populated.
	var q [4]int
	for _, c := range cities {
		i := 0
		if c.Lat < 0 {
			i |= 1
		}
		if c.Lon < 0 {
			i |= 2
		}
		q[i]++
	}
	for i, n := range q {
		if n < 20 {
			t.Errorf("quadrant %d has only %d cities", i, n)
		}
	}
}

func TestCitiesBounds(t *testing.T) {
	if _, err := Cities(0); err == nil {
		t.Errorf("Cities(0) must fail")
	}
	if _, err := Cities(10000); err == nil {
		t.Errorf("Cities(10000) must fail")
	}
	small, err := Cities(10)
	if err != nil || len(small) != 10 {
		t.Fatalf("Cities(10): %v, %d", err, len(small))
	}
}

func TestCityByName(t *testing.T) {
	c, err := CityByName("Durban")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Lat+29.86) > 0.01 {
		t.Errorf("Durban lat = %v", c.Lat)
	}
	if _, err := CityByName("Atlantis"); err == nil {
		t.Errorf("unknown city must fail")
	}
}

func TestRelayGrid(t *testing.T) {
	// A single inland city: relays must be on land, within range, and
	// roughly fill the disc.
	cities := []City{{"TestCity", "X", 48, 10, 5}} // Bavaria
	relays := RelayGrid(cities, 1.0, 1000)
	if len(relays) < 100 {
		t.Fatalf("only %d relays", len(relays))
	}
	for _, r := range relays {
		if !IsLand(r.Lat, r.Lon) {
			t.Fatalf("relay %v on water", r)
		}
		if d := geo.GreatCircleKm(r, geo.LL(48, 10)); d > 1000+1 {
			t.Fatalf("relay %v at %v km from city", r, d)
		}
	}
	// Denser spacing yields roughly quadratically more relays.
	dense := RelayGrid(cities, 0.5, 1000)
	if len(dense) < 3*len(relays) {
		t.Errorf("0.5° grid has %d relays vs %d at 1° — want ≈4×", len(dense), len(relays))
	}
}

func TestRelayGridEmpty(t *testing.T) {
	if r := RelayGrid(nil, 0.5, 2000); r != nil {
		t.Errorf("no cities → no relays")
	}
	if r := RelayGrid([]City{{"X", "X", 0, 0, 1}}, 0, 2000); r != nil {
		t.Errorf("zero spacing → no relays")
	}
	// A city in the middle of the ocean yields few or no land relays.
	oceanCity := []City{{"Ocean", "X", 0, -150, 1}}
	if r := RelayGrid(oceanCity, 1, 500); len(r) != 0 {
		t.Errorf("mid-Pacific city produced %d land relays", len(r))
	}
}

func TestRelayGridAntimeridian(t *testing.T) {
	// A city near the date line must mark cells on both sides.
	cities := []City{{"Fiji-ish", "X", -18, 178, 1}}
	relays := RelayGrid(cities, 1.0, 2500) // reaches northern New Zealand
	hasEast, hasWest := false, false
	for _, r := range relays {
		if r.Lon > 0 {
			hasEast = true
		} else {
			hasWest = true
		}
	}
	// New Zealand (east lon) and the -180 side islands are both within
	// 2000 km; at minimum the search must not crash and must find NZ.
	if !hasEast {
		t.Errorf("no relays east of the date line")
	}
	_ = hasWest // western side may be all ocean at mask resolution
}

func TestNewSegment(t *testing.T) {
	cities, err := Cities(50)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := NewSegment(cities, 2.0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumCity != 50 {
		t.Errorf("NumCity = %d", seg.NumCity)
	}
	if seg.NumRelay == 0 {
		t.Errorf("no relays generated")
	}
	if len(seg.Terminals) != seg.NumCity+seg.NumRelay {
		t.Errorf("terminal count mismatch")
	}
	for i, term := range seg.Terminals {
		if term.ID != i {
			t.Fatalf("terminal %d has ID %d", i, term.ID)
		}
		if i < 50 && term.Kind != KindCity {
			t.Fatalf("terminal %d should be a city", i)
		}
		if i >= 50 && term.Kind != KindRelay {
			t.Fatalf("terminal %d should be a relay", i)
		}
		if term.ECEF == (geo.Vec3{}) {
			t.Fatalf("terminal %d has no cached ECEF", i)
		}
	}
	if seg.Terminals[3].CityIndex != 3 {
		t.Errorf("Terminals[3] city index = %d", seg.Terminals[3].CityIndex)
	}
	// WithCities: extra cities sit between the cities and the unchanged relay
	// grid, IDs stay dense, and the receiver is left as it was.
	extra, err := CityByName("Durban")
	if err != nil {
		t.Fatal(err)
	}
	grown := seg.WithCities(extra)
	if grown.NumCity != 51 || grown.NumRelay != seg.NumRelay || len(grown.Cities) != 51 {
		t.Errorf("WithCities: %d cities (%d listed), %d relays", grown.NumCity, len(grown.Cities), grown.NumRelay)
	}
	if got := grown.Terminals[50]; got.Name != "Durban" || got.Kind != KindCity || got.CityIndex != 50 {
		t.Errorf("WithCities: terminal 50 = %+v", got)
	}
	for i, term := range grown.Terminals {
		if term.ID != i {
			t.Fatalf("WithCities: terminal %d has ID %d", i, term.ID)
		}
		if i > 50 && term.Pos != seg.Terminals[i-1].Pos {
			t.Fatalf("WithCities: relay %d moved", i)
		}
	}
	if seg.NumCity != 50 || len(seg.Cities) != 50 || seg.Terminals[50].Kind != KindRelay || seg.Terminals[50].ID != 50 {
		t.Errorf("WithCities modified its receiver")
	}
	// Without relays.
	noRelay, err := NewSegment(cities, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if noRelay.NumRelay != 0 || len(noRelay.Terminals) != 50 {
		t.Errorf("segment without relays malformed")
	}
	if _, err := NewSegment(nil, 0, 0); err == nil {
		t.Errorf("empty city list must fail")
	}
}

func TestTerminalKindString(t *testing.T) {
	if KindCity.String() != "city" || KindRelay.String() != "relay" ||
		KindAircraft.String() != "aircraft" {
		t.Errorf("kind strings wrong")
	}
	if TerminalKind(9).String() == "" {
		t.Errorf("unknown kind should still format")
	}
}

func TestGSOCheckerEquator(t *testing.T) {
	// For an equatorial GT, a satellite directly overhead is blocked:
	// the GSO arc passes through the zenith there.
	ck := NewGSOChecker(geo.LL(0, 0), StarlinkGSOPolicy())
	if ck == nil {
		t.Fatal("checker should be non-nil")
	}
	overhead := geo.LatLon{Lat: 0, Lon: 0, Alt: 550}.ToECEF()
	if ck.Allowed(overhead) {
		t.Errorf("zenith satellite at the Equator must be blocked")
	}
	// A satellite far to the north at high elevation is allowed.
	north := geo.LatLon{Lat: 7.5, Lon: 0, Alt: 550}.ToECEF()
	if !ck.Allowed(north) {
		t.Errorf("satellite 7.5° north of an equatorial GT should clear the arc")
	}
}

func TestGSOCheckerHighLatitude(t *testing.T) {
	// Above ~81° latitude the GSO arc is below the horizon entirely.
	ck := NewGSOChecker(geo.LL(85, 0), StarlinkGSOPolicy())
	if len(ck.dirs) != 0 {
		t.Errorf("GSO arc visible from 85°N? count=%d", len(ck.dirs))
	}
	anywhere := geo.LatLon{Lat: 85, Lon: 0, Alt: 550}.ToECEF()
	if !ck.Allowed(anywhere) {
		t.Errorf("no visible arc → all links allowed")
	}
}

func TestGSOCheckerDisabled(t *testing.T) {
	var ck *GSOChecker
	if !ck.Allowed(geo.Vec3{X: 7000}) {
		t.Errorf("nil checker must allow everything")
	}
	if ck := NewGSOChecker(geo.LL(0, 0), GSOPolicy{}); ck != nil {
		t.Errorf("zero policy must return nil checker")
	}
}

func TestFOVReductionProfile(t *testing.T) {
	// Fig 9: the FoV reduction is largest at the Equator and vanishes at
	// high latitude.
	p := StarlinkGSOPolicy()
	eq := FOVReduction(0, 40, p)
	mid := FOVReduction(45, 40, p)
	high := FOVReduction(85, 40, p)
	if eq <= mid || mid < high {
		t.Errorf("FoV reduction not decreasing with latitude: %v %v %v", eq, mid, high)
	}
	if eq < 0.15 {
		t.Errorf("equatorial FoV reduction = %v, expected substantial (Fig 9)", eq)
	}
	if high > 0.01 {
		t.Errorf("polar FoV reduction = %v, want ≈0", high)
	}
}
