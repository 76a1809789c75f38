// Package orbit implements the orbital-mechanics substrate of the simulator:
// classical Keplerian elements, a fast circular/J2 secular propagator used by
// the constellation experiments, a full SGP4 propagator ported from the
// standard Vallado reference implementation, and TLE parsing/formatting.
//
// Frames: propagators produce positions in an Earth-centered inertial (ECI)
// frame; internal/geo converts to Earth-fixed coordinates via GMST. Units are
// kilometers, seconds and radians unless a name says otherwise.
package orbit

import (
	"fmt"
	"math"
	"time"

	"leosim/internal/geo"
)

// Elements are classical Keplerian orbital elements at a reference epoch.
type Elements struct {
	// SemiMajorKm is the semi-major axis in kilometers (Earth center).
	SemiMajorKm float64
	// Eccentricity in [0, 1).
	Eccentricity float64
	// InclinationRad is the inclination in radians.
	InclinationRad float64
	// RAANRad is the right ascension of the ascending node in radians.
	RAANRad float64
	// ArgPerigeeRad is the argument of perigee in radians.
	ArgPerigeeRad float64
	// MeanAnomalyRad is the mean anomaly at Epoch in radians.
	MeanAnomalyRad float64
	// Epoch is the reference time for MeanAnomalyRad and RAANRad.
	Epoch time.Time
}

// Circular builds the elements of a circular orbit at altitude altKm with the
// given inclination, RAAN and initial mean anomaly (all degrees), at epoch.
func Circular(altKm, incDeg, raanDeg, meanAnomDeg float64, epoch time.Time) Elements {
	return Elements{
		SemiMajorKm:    geo.EarthRadius + altKm,
		InclinationRad: incDeg * geo.Deg,
		RAANRad:        raanDeg * geo.Deg,
		MeanAnomalyRad: meanAnomDeg * geo.Deg,
		Epoch:          epoch,
	}
}

// MeanMotion returns the Keplerian mean motion n = sqrt(mu/a^3) in rad/s.
func (e Elements) MeanMotion() float64 {
	a := e.SemiMajorKm
	return math.Sqrt(geo.EarthMu / (a * a * a))
}

// Validate checks that the elements describe a closed orbit above the
// surface.
func (e Elements) Validate() error {
	if e.Eccentricity < 0 || e.Eccentricity >= 1 {
		return fmt.Errorf("orbit: eccentricity %v outside [0,1)", e.Eccentricity)
	}
	if peri := e.SemiMajorKm * (1 - e.Eccentricity); peri <= geo.EarthRadius {
		return fmt.Errorf("orbit: perigee radius %.1f km is below the surface", peri)
	}
	if e.InclinationRad < 0 || e.InclinationRad > math.Pi {
		return fmt.Errorf("orbit: inclination %v outside [0,π]", e.InclinationRad)
	}
	return nil
}

// J2 perturbation constant of the Earth's oblateness (WGS84).
const J2 = 1.08262668e-3

// NodePrecessionRate returns the secular rate of the RAAN in rad/s caused by
// the Earth's J2 oblateness:
//
//	dΩ/dt = -(3/2) · J2 · (Re/p)² · n · cos i,
//
// with Re the equatorial radius J2 is defined against. For the Starlink shell
// (550 km, 53°) this is about −4.5°/day, which over the simulated day moves
// satellites by hundreds of kilometers; the experiment propagator therefore
// applies it.
func (e Elements) NodePrecessionRate() float64 {
	p := e.SemiMajorKm * (1 - e.Eccentricity*e.Eccentricity)
	ratio := geo.EarthEquatorialRadius / p
	return -1.5 * J2 * ratio * ratio * e.MeanMotion() * math.Cos(e.InclinationRad)
}

// ArgPerigeePrecessionRate returns the secular J2 rate of the argument of
// perigee in rad/s:
//
//	dω/dt = (3/4) · J2 · (Re/p)² · n · (5·cos²i − 1).
func (e Elements) ArgPerigeePrecessionRate() float64 {
	p := e.SemiMajorKm * (1 - e.Eccentricity*e.Eccentricity)
	ratio := geo.EarthEquatorialRadius / p
	ci := math.Cos(e.InclinationRad)
	return 0.75 * J2 * ratio * ratio * e.MeanMotion() * (5*ci*ci - 1)
}
