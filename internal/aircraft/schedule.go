package aircraft

import (
	"fmt"
	"math/rand"
	"time"

	"leosim/internal/geo"
	"leosim/internal/ground"
)

const (
	// CruiseSpeedKmh is the assumed great-circle ground speed.
	CruiseSpeedKmh = 900.0
	// CruiseAltKm is the assumed cruise altitude.
	CruiseAltKm = 11.0
)

// Flight is one scheduled flight: a great-circle trip from A to B departing
// at a fixed offset into the (repeating) day.
type Flight struct {
	ID       int
	From, To Airport
	// DepOffset is the departure time as an offset into the schedule day.
	DepOffset time.Duration
	// Duration is the time spent en route.
	Duration time.Duration
	// DistKm is the great-circle trip length.
	DistKm float64
}

// Aircraft is an in-flight aircraft at a specific instant.
type Aircraft struct {
	FlightID int
	Name     string
	Pos      geo.LatLon // includes cruise altitude
}

// Fleet is a deterministic daily flight schedule. The schedule repeats every
// 24 h, so positions are defined for any time.
type Fleet struct {
	Flights []Flight
	day0    time.Time
}

// NewFleet builds the fleet from the route catalogue. densityScale scales
// every route's daily frequency (1 = calibrated default; reduced-scale tests
// use < 1, which drops the sparsest routes first only by rounding). The
// schedule day is anchored at geo.Epoch.
func NewFleet(densityScale float64) (*Fleet, error) {
	if densityScale <= 0 {
		return nil, fmt.Errorf("aircraft: density scale must be positive, got %v", densityScale)
	}
	rng := rand.New(rand.NewSource(1))
	f := &Fleet{day0: geo.Epoch}
	id := 0
	for _, r := range routes {
		from, ok := AirportByCode(r.From)
		if !ok {
			return nil, fmt.Errorf("aircraft: unknown airport %q", r.From)
		}
		to, ok := AirportByCode(r.To)
		if !ok {
			return nil, fmt.Errorf("aircraft: unknown airport %q", r.To)
		}
		dist := geo.GreatCircleKm(geo.LL(from.Lat, from.Lon), geo.LL(to.Lat, to.Lon))
		dur := time.Duration(dist / CruiseSpeedKmh * float64(time.Hour))
		n := int(float64(r.PerDay)*densityScale + 0.5)
		if n < 1 {
			n = 1
		}
		for _, dir := range [][2]Airport{{from, to}, {to, from}} {
			// Spread departures evenly with a random per-route phase so
			// corridors do not pulse in lockstep.
			phase := time.Duration(rng.Float64() * float64(24*time.Hour))
			gap := 24 * time.Hour / time.Duration(n)
			for i := 0; i < n; i++ {
				dep := (phase + time.Duration(i)*gap) % (24 * time.Hour)
				f.Flights = append(f.Flights, Flight{
					ID:        id,
					From:      dir[0],
					To:        dir[1],
					DepOffset: dep,
					Duration:  dur,
					DistKm:    dist,
				})
				id++
			}
		}
	}
	return f, nil
}

// positionAt returns the aircraft position of flight fl at time t, and
// whether the flight is airborne then. The schedule wraps daily; a flight
// spanning midnight is handled by also checking the previous day's departure.
func (f *Fleet) positionAt(fl Flight, t time.Time) (geo.LatLon, bool) {
	sinceDay0 := t.Sub(f.day0)
	if sinceDay0 < 0 {
		// Normalize into the schedule's repeating day.
		days := (-sinceDay0/(24*time.Hour) + 1)
		sinceDay0 += days * 24 * time.Hour
	}
	intoDay := sinceDay0 % (24 * time.Hour)
	for _, dep := range []time.Duration{fl.DepOffset, fl.DepOffset - 24*time.Hour} {
		el := intoDay - dep
		if el >= 0 && el <= fl.Duration {
			frac := float64(el) / float64(fl.Duration)
			p := geo.Intermediate(
				geo.LL(fl.From.Lat, fl.From.Lon),
				geo.LL(fl.To.Lat, fl.To.Lon), frac)
			p.Alt = CruiseAltKm
			return p, true
		}
	}
	return geo.LatLon{}, false
}

// ActiveAt returns all airborne aircraft at time t.
func (f *Fleet) ActiveAt(t time.Time) []Aircraft {
	var out []Aircraft
	for _, fl := range f.Flights {
		if p, ok := f.positionAt(fl, t); ok {
			out = append(out, Aircraft{
				FlightID: fl.ID,
				Name:     fmt.Sprintf("%s-%s/%d", fl.From.Code, fl.To.Code, fl.ID),
				Pos:      p,
			})
		}
	}
	return out
}

// OverWaterAt returns the airborne aircraft that are currently over water —
// the only ones the paper admits as transit relays ("We include only those
// aircraft as possible intermediate hops which are flying over water
// bodies", §3).
func (f *Fleet) OverWaterAt(t time.Time) []Aircraft {
	all := f.ActiveAt(t)
	out := all[:0]
	for _, a := range all {
		if ground.IsWater(a.Pos.Lat, a.Pos.Lon) {
			out = append(out, a)
		}
	}
	return out
}
