package ground

import (
	"math"

	"leosim/internal/geo"
)

// GSO arc avoidance (§7, Fig 9): LEO up/down-links must keep a minimum
// angular separation from the bore-sight toward any geostationary satellite,
// because GSO satellites fly above the Equator in the same frequency bands.
// Starlink's filings specify 22°; Kuiper's 12° growing to 18°.

// GSOPolicy describes the arc-avoidance constraint for a ground terminal.
type GSOPolicy struct {
	// SeparationDeg is the minimum angle between a GT→LEO link and the
	// GT→GSO direction, for every GSO arc position above the horizon.
	// Zero disables the constraint.
	SeparationDeg float64
	// arcStepDeg is the sampling step along the GSO arc (longitude).
	arcStepDeg float64
}

// StarlinkGSOPolicy returns the 22° separation from SpaceX's filing.
func StarlinkGSOPolicy() GSOPolicy { return GSOPolicy{SeparationDeg: 22, arcStepDeg: 1} }

// GSOChecker precomputes, for one ground terminal, the directions toward the
// visible part of the geostationary arc, enabling fast per-satellite checks.
type GSOChecker struct {
	origin geo.Vec3
	dirs   []geo.Vec3 // unit vectors toward visible GSO arc points
	minSep float64    // radians
}

// NewGSOChecker builds a checker for a terminal at pos under policy p.
// A nil checker (disabled policy) allows all links.
func NewGSOChecker(pos geo.LatLon, p GSOPolicy) *GSOChecker {
	if p.SeparationDeg <= 0 {
		return nil
	}
	step := p.arcStepDeg
	if step <= 0 {
		step = 1
	}
	obs := pos.ToECEF()
	ck := &GSOChecker{origin: obs, minSep: p.SeparationDeg * geo.Deg}
	for lon := -180.0; lon < 180; lon += step {
		gso := geo.LatLon{Lat: 0, Lon: lon, Alt: geo.GSOAltitude}.ToECEF()
		// Only arc positions above the local horizon matter.
		if geo.Elevation(obs, gso) < 0 {
			continue
		}
		ck.dirs = append(ck.dirs, gso.Sub(obs).Unit())
	}
	return ck
}

// Allowed reports whether a link from the terminal to a satellite at ECEF
// position sat keeps the required separation from the whole visible GSO arc.
// A nil receiver (no policy) always allows.
func (ck *GSOChecker) Allowed(sat geo.Vec3) bool {
	if ck == nil {
		return true
	}
	d := sat.Sub(ck.origin).Unit()
	cosMin := math.Cos(ck.minSep)
	for _, g := range ck.dirs {
		if d.Dot(g) > cosMin {
			return false
		}
	}
	return true
}

// FOVReduction quantifies Fig 9: the fraction of otherwise-usable sky
// directions (elevation ≥ minElevDeg) that the GSO constraint blocks for a
// terminal at latitude latDeg. Directions are sampled on an
// elevation-azimuth grid weighted by solid angle.
func FOVReduction(latDeg, minElevDeg float64, p GSOPolicy) float64 {
	pos := geo.LL(latDeg, 0)
	ck := NewGSOChecker(pos, p)
	obs := pos.ToECEF()
	up := obs.Unit()
	// Local east/north basis.
	east := geo.Vec3{X: -math.Sin(0), Y: math.Cos(0), Z: 0} // lon=0 → east = +Y
	north := up.Cross(east).Scale(-1)
	_ = north

	var blocked, usable float64
	for el := minElevDeg; el < 90; el += 1 {
		w := math.Cos(el * geo.Deg) // solid-angle weight of the elevation band
		for az := 0.0; az < 360; az += 2 {
			dir := dirFromAzEl(up, east, az, el)
			// Probe a point far along this direction (satellite shell
			// distance is irrelevant to the angle test).
			sat := obs.Add(dir.Scale(1000))
			usable += w
			if !ck.Allowed(sat) {
				blocked += w
			}
		}
	}
	if usable == 0 {
		return 0
	}
	return blocked / usable
}

// dirFromAzEl builds a unit direction from azimuth (deg, clockwise from
// north) and elevation (deg) in the local frame defined by up and east.
func dirFromAzEl(up, east geo.Vec3, azDeg, elDeg float64) geo.Vec3 {
	north := up.Cross(east)
	sa, ca := math.Sincos(azDeg * geo.Deg)
	se, ce := math.Sincos(elDeg * geo.Deg)
	h := north.Scale(ca).Add(east.Scale(sa))
	return h.Scale(ce).Add(up.Scale(se)).Unit()
}
