package geo

import (
	"math"
	"time"
)

// ToECEF converts a geodetic position on the spherical Earth to ECEF
// Cartesian coordinates (km). The spherical model is used for all network
// geometry, so coverage-radius math matches the paper's §2 numbers exactly.
func (p LatLon) ToECEF() Vec3 {
	lat := p.Lat * Deg
	lon := p.Lon * Deg
	r := EarthRadius + p.Alt
	cl := math.Cos(lat)
	return Vec3{
		X: r * cl * math.Cos(lon),
		Y: r * cl * math.Sin(lon),
		Z: r * math.Sin(lat),
	}
}

// FromECEF converts an ECEF Cartesian position (km) back to spherical
// geodetic coordinates.
func FromECEF(v Vec3) LatLon {
	r := v.Norm()
	if r == 0 {
		return LatLon{}
	}
	return LatLon{
		Lat: math.Asin(v.Z/r) * Rad,
		Lon: math.Atan2(v.Y, v.X) * Rad,
		Alt: r - EarthRadius,
	}
}

// ECIToECEF rotates an ECI position into the ECEF frame at time t, using
// GMST as the rotation angle about the Z axis.
func ECIToECEF(v Vec3, t time.Time) Vec3 {
	return RotateZ(v, -GMST(t))
}

// RotateZ rotates v about the +Z axis by angle radians (right-handed).
func RotateZ(v Vec3, angle float64) Vec3 {
	s, c := math.Sincos(angle)
	return Vec3{
		X: c*v.X - s*v.Y,
		Y: s*v.X + c*v.Y,
		Z: v.Z,
	}
}

// Elevation returns the elevation angle, in degrees, at which an observer at
// ECEF position obs sees a target at ECEF position tgt. Both positions must
// be in the same Earth-fixed frame. The result is negative when the target is
// below the observer's local horizon.
func Elevation(obs, tgt Vec3) float64 {
	d := tgt.Sub(obs)
	dn := d.Norm()
	on := obs.Norm()
	if dn == 0 || on == 0 {
		return 90
	}
	// sin(elev) = (d · up) / |d| with up = obs/|obs| (spherical Earth).
	sinE := d.Dot(obs) / (dn * on)
	if sinE > 1 {
		sinE = 1
	} else if sinE < -1 {
		sinE = -1
	}
	return math.Asin(sinE) * Rad
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
