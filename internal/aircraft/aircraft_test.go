package aircraft

import (
	"testing"
	"time"

	"leosim/internal/geo"
	"leosim/internal/ground"
)

func TestAirportCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range airports {
		if len(a.Code) != 3 {
			t.Errorf("airport code %q not 3 letters", a.Code)
		}
		if seen[a.Code] {
			t.Errorf("duplicate airport %q", a.Code)
		}
		seen[a.Code] = true
		if !geo.LL(a.Lat, a.Lon).Valid() {
			t.Errorf("airport %s has invalid coordinates", a.Code)
		}
	}
	if _, ok := AirportByCode("JFK"); !ok {
		t.Errorf("JFK missing")
	}
	if _, ok := AirportByCode("XXX"); ok {
		t.Errorf("XXX should not exist")
	}
}

func TestRouteCatalogueValid(t *testing.T) {
	for _, r := range routes {
		if _, ok := AirportByCode(r.From); !ok {
			t.Errorf("route %s-%s: unknown origin", r.From, r.To)
		}
		if _, ok := AirportByCode(r.To); !ok {
			t.Errorf("route %s-%s: unknown destination", r.From, r.To)
		}
		if r.PerDay < 1 {
			t.Errorf("route %s-%s has frequency %d", r.From, r.To, r.PerDay)
		}
	}
}

func TestNewFleet(t *testing.T) {
	f, err := NewFleet(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Flights) < 500 {
		t.Fatalf("only %d flights/day", len(f.Flights))
	}
	for _, fl := range f.Flights {
		if fl.Duration <= 0 || fl.DistKm <= 0 {
			t.Fatalf("flight %d has no extent: %+v", fl.ID, fl)
		}
		if fl.DepOffset < 0 || fl.DepOffset >= 24*time.Hour {
			t.Fatalf("flight %d departs outside the day: %v", fl.ID, fl.DepOffset)
		}
	}
	if _, err := NewFleet(0); err == nil {
		t.Errorf("zero density must fail")
	}
}

func TestFleetDeterministic(t *testing.T) {
	a, _ := NewFleet(1)
	b, _ := NewFleet(1)
	if len(a.Flights) != len(b.Flights) {
		t.Fatalf("fleet sizes differ")
	}
	for i := range a.Flights {
		if a.Flights[i] != b.Flights[i] {
			t.Fatalf("flight %d differs between builds", i)
		}
	}
}

func TestActiveAircraftPositions(t *testing.T) {
	f, _ := NewFleet(1)
	at := geo.Epoch.Add(10 * time.Hour)
	active := f.ActiveAt(at)
	if len(active) < 100 {
		t.Fatalf("only %d aircraft airborne", len(active))
	}
	for _, a := range active {
		if a.Pos.Alt != CruiseAltKm {
			t.Fatalf("aircraft %s at altitude %v", a.Name, a.Pos.Alt)
		}
		if !geo.LL(a.Pos.Lat, a.Pos.Lon).Valid() {
			t.Fatalf("aircraft %s at invalid position", a.Name)
		}
	}
}

func TestAircraftProgressAlongRoute(t *testing.T) {
	f, _ := NewFleet(1)
	fl := f.Flights[0]
	dep := f.day0.Add(fl.DepOffset)
	// At departure the aircraft is at the origin; halfway it is near the
	// route midpoint; just after arrival it is gone.
	p0, ok := f.positionAt(fl, dep)
	if !ok {
		t.Fatal("aircraft not airborne at departure")
	}
	if d := geo.GreatCircleKm(p0, geo.LL(fl.From.Lat, fl.From.Lon)); d > 1 {
		t.Errorf("at departure %v km from origin", d)
	}
	pm, ok := f.positionAt(fl, dep.Add(fl.Duration/2))
	if !ok {
		t.Fatal("aircraft not airborne at midpoint")
	}
	mid := geo.Intermediate(geo.LL(fl.From.Lat, fl.From.Lon), geo.LL(fl.To.Lat, fl.To.Lon), 0.5)
	if d := geo.GreatCircleKm(pm, mid); d > 30 {
		t.Errorf("midpoint off by %v km", d)
	}
	if _, ok := f.positionAt(fl, dep.Add(fl.Duration+time.Minute)); ok {
		t.Errorf("aircraft still airborne after arrival")
	}
}

func TestScheduleWrapsMidnight(t *testing.T) {
	f, _ := NewFleet(1)
	// Pick a flight that spans midnight.
	var fl Flight
	found := false
	for _, c := range f.Flights {
		if c.DepOffset+c.Duration > 24*time.Hour {
			fl, found = c, true
			break
		}
	}
	if !found {
		t.Skip("no midnight-spanning flight in schedule")
	}
	// Just after the next day starts, the flight is still airborne.
	at := f.day0.Add(24*time.Hour + (fl.DepOffset+fl.Duration-24*time.Hour)/2)
	if _, ok := f.positionAt(fl, at); !ok {
		t.Errorf("midnight-spanning flight lost at wrap")
	}
	// Times before day0 also resolve (schedule is periodic).
	before := f.day0.Add(-24*time.Hour + fl.DepOffset + fl.Duration/2)
	if _, ok := f.positionAt(fl, before); !ok {
		t.Errorf("schedule not periodic into the past")
	}
}

func TestOverWaterFilter(t *testing.T) {
	f, _ := NewFleet(1)
	at := geo.Epoch.Add(14 * time.Hour)
	over := f.OverWaterAt(at)
	all := f.ActiveAt(at)
	if len(over) == 0 || len(over) >= len(all) {
		t.Fatalf("over-water %d of %d active — filter suspicious", len(over), len(all))
	}
	for _, a := range over {
		if ground.IsLand(a.Pos.Lat, a.Pos.Lon) {
			t.Fatalf("aircraft %s over land at %v", a.Name, a.Pos)
		}
	}
}

// The experiments depend on corridor asymmetry: many more aircraft over the
// North Atlantic than the South Atlantic at any hour (§4, Fig 3).
func TestCorridorAsymmetry(t *testing.T) {
	f, _ := NewFleet(1)
	for h := 0; h < 24; h += 3 {
		at := geo.Epoch.Add(time.Duration(h) * time.Hour)
		over := f.OverWaterAt(at)
		north := CountInBox(over, 35, 65, -60, -10)
		south := CountInBox(over, -40, -5, -40, 5)
		if north < 2*south {
			t.Errorf("h=%d: N Atlantic %d vs S Atlantic %d — want strong asymmetry",
				h, north, south)
		}
	}
	// And the North Atlantic must be busy in absolute terms at some hour.
	maxN := 0
	for h := 0; h < 24; h++ {
		n := CountInBox(f.OverWaterAt(geo.Epoch.Add(time.Duration(h)*time.Hour)), 35, 65, -60, -10)
		if n > maxN {
			maxN = n
		}
	}
	if maxN < 40 {
		t.Errorf("peak North Atlantic concurrency = %d, want ≥ 40", maxN)
	}
}

func TestDensityScale(t *testing.T) {
	full, _ := NewFleet(1)
	half, _ := NewFleet(0.5)
	if len(half.Flights) >= len(full.Flights) {
		t.Errorf("density 0.5 should reduce flight count: %d vs %d",
			len(half.Flights), len(full.Flights))
	}
	// Every route keeps at least one flight each way.
	if len(half.Flights) < 2*len(routes) {
		t.Errorf("scaling dropped routes entirely")
	}
}

// CountInBox counts aircraft from the list within a lat/lon box, for the
// corridor-density calibration checks.
func CountInBox(list []Aircraft, latMin, latMax, lonMin, lonMax float64) int {
	n := 0
	for _, a := range list {
		if a.Pos.Lat >= latMin && a.Pos.Lat <= latMax &&
			a.Pos.Lon >= lonMin && a.Pos.Lon <= lonMax {
			n++
		}
	}
	return n
}
