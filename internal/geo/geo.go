// Package geo provides the geodetic and astrodynamic primitives used by the
// rest of the simulator: Cartesian vectors, coordinate transforms between
// geodetic, Earth-centered Earth-fixed (ECEF) and Earth-centered inertial
// (ECI) frames, elevation and visibility, great-circle geodesics, and
// sidereal time.
//
// Conventions: distances are kilometers, times are seconds (or time.Time for
// epochs), angles at the public API boundary are degrees, and internal math
// uses radians. Latitude is positive north, longitude positive east.
package geo

import (
	"fmt"
	"math"
)

// Physical and geodetic constants. Distances are in kilometers.
const (
	// EarthRadius is the volumetric mean Earth radius used for the
	// spherical-Earth geometry that the network experiments run on.
	EarthRadius = 6371.0

	// EarthEquatorialRadius is the WGS84 semi-major axis.
	EarthEquatorialRadius = 6378.137

	// EarthMu is the WGS84 gravitational parameter in km^3/s^2.
	EarthMu = 398600.4418

	// LightSpeed is the speed of light in vacuum, km/s. Laser ISLs and
	// radio ground-satellite links both propagate at c.
	LightSpeed = 299792.458

	// FiberSpeed is the effective propagation speed in optical fiber
	// (~2/3 c), used for the terrestrial fiber augmentation of §8.
	FiberSpeed = LightSpeed * 2.0 / 3.0

	// MsPerKm is the one-way propagation delay in milliseconds per
	// kilometre at c. Link construction multiplies by this instead of
	// dividing by LightSpeed: the untyped constant 1000/c is rounded once
	// at compile time, so every construction site produces bit-identical
	// delays from the same distance, and the per-link float division
	// disappears from the hot path.
	MsPerKm = 1000 / LightSpeed

	// GSOAltitude is the altitude of the geostationary arc above the
	// Equator, used for the GSO arc-avoidance constraint of §7.
	GSOAltitude = 35786.0

	// Deg converts degrees to radians when multiplied.
	Deg = math.Pi / 180
	// Rad converts radians to degrees when multiplied.
	Rad = 180 / math.Pi
)

// LatLon is a geodetic position: latitude and longitude in degrees and
// altitude above the (spherical) Earth surface in kilometers.
type LatLon struct {
	Lat, Lon float64 // degrees
	Alt      float64 // kilometers above surface
}

// LL builds a surface LatLon (altitude zero).
func LL(lat, lon float64) LatLon { return LatLon{Lat: lat, Lon: lon} }

// Normalize returns the position with longitude wrapped into (-180, 180] and
// latitude clamped into [-90, 90].
func (p LatLon) Normalize() LatLon {
	lon := math.Mod(p.Lon, 360)
	if lon > 180 {
		lon -= 360
	} else if lon <= -180 {
		lon += 360
	}
	lat := p.Lat
	if lat > 90 {
		lat = 90
	} else if lat < -90 {
		lat = -90
	}
	return LatLon{Lat: lat, Lon: lon, Alt: p.Alt}
}

// Valid reports whether latitude and longitude are within their conventional
// ranges.
func (p LatLon) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 360 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// String implements fmt.Stringer.
func (p LatLon) String() string {
	ns, ew := "N", "E"
	lat, lon := p.Lat, p.Lon
	if lat < 0 {
		ns, lat = "S", -lat
	}
	if lon < 0 {
		ew, lon = "W", -lon
	}
	if p.Alt != 0 {
		return fmt.Sprintf("%.3f°%s %.3f°%s %+.1fkm", lat, ns, lon, ew, p.Alt)
	}
	return fmt.Sprintf("%.3f°%s %.3f°%s", lat, ns, lon, ew)
}

// CoverageRadius returns the great-circle radius (km, along the surface) of
// the coverage cone of a satellite at altitude h (km) for ground terminals
// with minimum elevation angle elevDeg (degrees).
//
// Geometry: for a spherical Earth of radius R, a terminal sees the satellite
// at elevation e when the Earth-central angle ψ between terminal and
// sub-satellite point satisfies
//
//	ψ = acos(R·cos(e)/(R+h)) − e.
//
// Starlink (h=550, e=25°) yields ≈941 km and Kuiper (h=630, e=30°)
// ≈1,091 km, matching §2 of the paper.
func CoverageRadius(altKm, elevDeg float64) float64 {
	e := elevDeg * Deg
	psi := math.Acos(EarthRadius*math.Cos(e)/(EarthRadius+altKm)) - e
	return EarthRadius * psi
}

// SlantRange returns the terminal→satellite distance in km for a satellite at
// altitude h seen at elevation elevDeg, on a spherical Earth.
func SlantRange(altKm, elevDeg float64) float64 {
	e := elevDeg * Deg
	r := EarthRadius + altKm
	// Law of cosines in the Earth-center/terminal/satellite triangle.
	return math.Sqrt(r*r-EarthRadius*EarthRadius*math.Cos(e)*math.Cos(e)) -
		EarthRadius*math.Sin(e)
}

// MaxGSLLength returns the maximum length of a ground-satellite link for a
// satellite at altKm with minimum elevation elevDeg. It is the slant range at
// exactly the minimum elevation.
func MaxGSLLength(altKm, elevDeg float64) float64 { return SlantRange(altKm, elevDeg) }

// MaxSlantRange returns the largest possible distance between a terminal at
// geocentric radius rTermKm and a satellite at geocentric radius rSatKm seen
// at elevation ≥ elevDeg. It generalizes MaxGSLLength to elevated terminals
// (aircraft relays): by the law of cosines in the center/terminal/satellite
// triangle, the range at elevation e is
//
//	d(e) = sqrt(rSat² − rTerm²·cos²e) − rTerm·sin e,
//
// which is strictly decreasing in e, so d(elevDeg) bounds every feasible
// link. Returns 0 when the satellite is below the terminal's horizon cone
// entirely (rSat < rTerm).
func MaxSlantRange(rTermKm, rSatKm, elevDeg float64) float64 {
	if rSatKm <= rTermKm {
		return 0
	}
	e := elevDeg * Deg
	cosE, sinE := math.Cos(e), math.Sin(e)
	disc := rSatKm*rSatKm - rTermKm*rTermKm*cosE*cosE
	if disc <= 0 {
		return 0
	}
	return math.Sqrt(disc) - rTermKm*sinE
}

// SegmentMinAltitudeKm returns the minimum altitude above the (spherical)
// Earth surface reached by the straight-line segment a–b (ECEF, km).
// Negative values mean the segment cuts through the Earth.
func SegmentMinAltitudeKm(a, b Vec3) float64 {
	ab := b.Sub(a)
	den := ab.Norm2()
	if den == 0 {
		return a.Norm() - EarthRadius
	}
	// Parameter of the closest point on the infinite line to the origin,
	// clamped to the segment.
	t := -a.Dot(ab) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return a.Add(ab.Scale(t)).Norm() - EarthRadius
}

// MinFreeSpacePathKm returns the length of the shortest curve from a to b
// (ECEF, km) that stays outside the Earth sphere — the "taut string" pulled
// tight around the planet. If the straight segment clears the surface this is
// simply the chord |a−b|; otherwise it is the two tangent segments plus the
// great-circle arc wrapped around the limb:
//
//	L = sqrt(ra²−R²) + sqrt(rb²−R²) + R·(ψ − acos(R/ra) − acos(R/rb)),
//
// with ψ the Earth-central angle between a and b. For two surface points it
// degenerates to the great-circle distance. No physical signal path between
// a and b can be shorter, which makes L/c a hard lower bound on one-way
// propagation delay — the oracle the invariant checker uses.
func MinFreeSpacePathKm(a, b Vec3) float64 {
	chord := a.Distance(b)
	if SegmentMinAltitudeKm(a, b) >= 0 {
		return chord
	}
	ra, rb := a.Norm(), b.Norm()
	if ra < EarthRadius {
		ra = EarthRadius // endpoints can sit on (never below) the surface
	}
	if rb < EarthRadius {
		rb = EarthRadius
	}
	psi := a.AngleTo(b)
	wrap := psi - math.Acos(EarthRadius/ra) - math.Acos(EarthRadius/rb)
	if wrap < 0 {
		// Grazing geometry where floating point disagrees with the segment
		// test: the chord is always a valid lower bound.
		return chord
	}
	return math.Sqrt(ra*ra-EarthRadius*EarthRadius) +
		math.Sqrt(rb*rb-EarthRadius*EarthRadius) + EarthRadius*wrap
}
