package ground

import (
	"fmt"

	"leosim/internal/geo"
)

// TerminalKind distinguishes the three kinds of ground terminals of §3.
type TerminalKind uint8

const (
	// KindCity terminals source and sink traffic, and may also transit.
	KindCity TerminalKind = iota
	// KindRelay terminals only transit traffic (the 0.5° grid GTs).
	KindRelay
	// KindAircraft terminals are in-flight aircraft over water acting as
	// transit relays.
	KindAircraft
)

// String implements fmt.Stringer.
func (k TerminalKind) String() string {
	switch k {
	case KindCity:
		return "city"
	case KindRelay:
		return "relay"
	case KindAircraft:
		return "aircraft"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Terminal is a ground (or airborne) terminal that can form radio links to
// satellites.
type Terminal struct {
	// ID is the terminal's index within its Segment.
	ID int
	// Kind says whether this is a city, a grid relay, or an aircraft.
	Kind TerminalKind
	// Name is a human-readable identifier (city name, relay grid cell,
	// flight number).
	Name string
	// Pos is the geodetic position. City and relay terminals are at the
	// surface; aircraft carry a cruise altitude.
	Pos geo.LatLon
	// ECEF caches Pos.ToECEF(). For aircraft it is the position at the
	// snapshot the Segment was built for.
	ECEF geo.Vec3
	// CityIndex is the index into the city list for KindCity, else -1.
	CityIndex int
}

// NewTerminal builds a terminal and caches its ECEF position.
func NewTerminal(id int, kind TerminalKind, name string, pos geo.LatLon, cityIdx int) Terminal {
	return Terminal{
		ID:        id,
		Kind:      kind,
		Name:      name,
		Pos:       pos,
		ECEF:      pos.ToECEF(),
		CityIndex: cityIdx,
	}
}

// Segment is the full ground segment: cities first, then grid relays; the
// time-varying aircraft terminals are appended per snapshot by the graph
// builder.
type Segment struct {
	Cities    []City
	Terminals []Terminal // cities then relays, in that order
	NumCity   int
	NumRelay  int
}

// NewSegment builds the ground segment: one terminal per city plus transit
// relays on a spacingDeg grid within maxRelayKm of any city (on land). Pass
// spacingDeg = 0 to omit grid relays entirely.
func NewSegment(cities []City, spacingDeg, maxRelayKm float64) (*Segment, error) {
	if len(cities) == 0 {
		return nil, fmt.Errorf("ground: no cities")
	}
	s := &Segment{Cities: cities, NumCity: len(cities)}
	for i, c := range cities {
		s.Terminals = append(s.Terminals,
			NewTerminal(i, KindCity, c.Name, c.Position(), i))
	}
	if spacingDeg > 0 {
		relays := RelayGrid(cities, spacingDeg, maxRelayKm)
		for _, p := range relays {
			id := len(s.Terminals)
			s.Terminals = append(s.Terminals, NewTerminal(
				id, KindRelay,
				fmt.Sprintf("relay@%.2f,%.2f", p.Lat, p.Lon), p, -1))
		}
		s.NumRelay = len(relays)
	}
	return s, nil
}

// WithCities returns a new segment with the extra cities' terminals placed
// after the receiver's cities and before its relays; the relay grid stays
// the one computed from the receiver's cities. The receiver is not modified.
func (s *Segment) WithCities(extra ...City) *Segment {
	out := &Segment{
		Cities:    append(s.Cities[:s.NumCity:s.NumCity], extra...),
		Terminals: make([]Terminal, 0, len(s.Terminals)+len(extra)),
		NumCity:   s.NumCity + len(extra),
		NumRelay:  s.NumRelay,
	}
	out.Terminals = append(out.Terminals, s.Terminals[:s.NumCity]...)
	for i, c := range extra {
		out.Terminals = append(out.Terminals,
			NewTerminal(s.NumCity+i, KindCity, c.Name, c.Position(), s.NumCity+i))
	}
	for _, t := range s.Terminals[s.NumCity:] {
		t.ID += len(extra)
		out.Terminals = append(out.Terminals, t)
	}
	return out
}
