// Package constellation generates LEO mega-constellation geometry: Walker
// orbital shells, per-satellite propagators, the +Grid inter-satellite link
// topology, and position snapshots over time.
package constellation

import (
	"fmt"
	"math"
	"time"

	"leosim/internal/geo"
	"leosim/internal/orbit"
)

// Shell describes one orbital shell: a set of "parallel" orbital planes that
// share an altitude and inclination and cross the Equator at uniform
// separation (§2 of the paper).
type Shell struct {
	// Name identifies the shell in reports, e.g. "starlink-p1".
	Name string
	// Planes is the number of orbital planes.
	Planes int
	// SatsPerPlane is the number of satellites per plane.
	SatsPerPlane int
	// AltitudeKm is the operating altitude above the surface.
	AltitudeKm float64
	// InclinationDeg is the plane inclination.
	InclinationDeg float64
	// WalkerF is the Walker-delta phasing factor F in the i:T/P/F
	// notation: satellites of successive planes are offset in mean
	// anomaly by F·360°/T (T = Planes·SatsPerPlane). Any integer F keeps
	// the pattern globally consistent — in particular the anomaly shift
	// accumulated around the full plane ring is exactly F slot spacings,
	// which the +Grid seam links absorb by connecting slot j to slot j+F.
	WalkerF int
	// RAANSpreadDeg is the total right-ascension span the planes are
	// spread over: 360 for a Walker delta (inclined shells like Starlink
	// and Kuiper), 180 for a polar star configuration.
	RAANSpreadDeg float64
	// RAANOffsetDeg rotates the whole shell about the Earth's axis: plane p
	// gets RAAN = RAANOffsetDeg + p·RAANSpreadDeg/Planes. Zero (the
	// default) reproduces the historical layout; the invariant suite uses
	// it to verify that rotating the entire system leaves the physics
	// unchanged.
	RAANOffsetDeg float64
	// MinElevationDeg is the minimum elevation angle at which ground
	// terminals can communicate with satellites of this shell.
	MinElevationDeg float64
}

// Size returns the number of satellites in the shell.
func (s Shell) Size() int { return s.Planes * s.SatsPerPlane }

// Validate checks the shell parameters.
func (s Shell) Validate() error {
	if s.Planes <= 0 || s.SatsPerPlane <= 0 {
		return fmt.Errorf("constellation: shell %q needs positive planes×sats, got %d×%d",
			s.Name, s.Planes, s.SatsPerPlane)
	}
	if s.AltitudeKm <= 0 || s.AltitudeKm > 2000 {
		return fmt.Errorf("constellation: shell %q altitude %.0f km outside LEO (0,2000]",
			s.Name, s.AltitudeKm)
	}
	if s.InclinationDeg < 0 || s.InclinationDeg > 180 {
		return fmt.Errorf("constellation: shell %q inclination %.1f out of range",
			s.Name, s.InclinationDeg)
	}
	if s.MinElevationDeg < 0 || s.MinElevationDeg >= 90 {
		return fmt.Errorf("constellation: shell %q min elevation %.1f out of range",
			s.Name, s.MinElevationDeg)
	}
	if s.RAANSpreadDeg <= 0 || s.RAANSpreadDeg > 360 {
		return fmt.Errorf("constellation: shell %q RAAN spread %.1f out of range",
			s.Name, s.RAANSpreadDeg)
	}
	return nil
}

// CoverageRadiusKm returns the ground coverage radius of one satellite.
func (s Shell) CoverageRadiusKm() float64 {
	return geo.CoverageRadius(s.AltitudeKm, s.MinElevationDeg)
}

// MaxGSLKm returns the maximum ground-satellite link length.
func (s Shell) MaxGSLKm() float64 {
	return geo.MaxGSLLength(s.AltitudeKm, s.MinElevationDeg)
}

// Satellite identifies one satellite of a constellation and carries its
// propagator.
type Satellite struct {
	// Index is the satellite's position in the constellation-wide array.
	Index int
	// ShellIndex, Plane and Slot locate the satellite in its shell.
	ShellIndex, Plane, Slot int
	// Prop yields positions over time.
	Prop orbit.Propagator
}

// elements computes the Keplerian elements of satellite (plane, slot) in the
// shell at the given epoch.
func (s Shell) elements(plane, slot int, epoch time.Time) orbit.Elements {
	raan := s.RAANOffsetDeg + s.RAANSpreadDeg/float64(s.Planes)*float64(plane)
	slotSpacing := 360.0 / float64(s.SatsPerPlane)
	ma := slotSpacing*float64(slot) +
		float64(s.WalkerF)*360.0/float64(s.Size())*float64(plane)
	ma = math.Mod(ma, 360)
	return orbit.Circular(s.AltitudeKm, s.InclinationDeg, raan, ma, epoch)
}

// ChordBoundsKm returns the exact [min,max] length a link between two
// satellites of the shell with the given plane/slot offsets can take, at any
// time.
//
// Both satellites move on circular orbits of radius r and inclination i with
// RAAN separation ΔΩ and argument-of-latitude separation Δu; under the
// J2-secular model both separations are constants of motion (all satellites
// of a shell share a, i and hence identical drift rates). Writing u for the
// first satellite's argument of latitude, the central angle ψ between them
// satisfies
//
//	cos ψ = ½(A+B)·cosΔu + ½(A−B)·cos(2u+Δu) + C
//	A = cosΔΩ,  B = cos²i·cosΔΩ + sin²i,  C = −cos i·sinΔΩ·sinΔu
//
// — a pure sinusoid in 2u plus a constant, so the extrema are exact:
// cosψ ∈ [K1−|K2|, K1+|K2|] with K1 the constant part and K2 = ½(A−B).
// The chord length is r·√(2−2cosψ). For intra-plane links (ΔΩ=0) the
// oscillating term vanishes and the bound collapses to the constant
// 2r·sin(Δu/2).
func (s Shell) ChordBoundsKm(dPlane, dSlot int) (lo, hi float64) {
	r := geo.EarthRadius + s.AltitudeKm
	inc := s.InclinationDeg * geo.Deg
	dRaan := s.RAANSpreadDeg / float64(s.Planes) * float64(dPlane) * geo.Deg
	dU := (360/float64(s.SatsPerPlane)*float64(dSlot) +
		float64(s.WalkerF)*360/float64(s.Size())*float64(dPlane)) * geo.Deg

	ci, si := math.Cos(inc), math.Sin(inc)
	a := math.Cos(dRaan)
	b := ci*ci*math.Cos(dRaan) + si*si
	k1 := 0.5*(a+b)*math.Cos(dU) - ci*math.Sin(dRaan)*math.Sin(dU)
	k2 := 0.5 * math.Abs(a-b)

	chord := func(cosPsi float64) float64 {
		q := 2 - 2*cosPsi
		if q < 0 {
			q = 0
		}
		return r * math.Sqrt(q)
	}
	return chord(k1 + k2), chord(k1 - k2) // larger cosψ ⇒ shorter chord
}

// TLEs generates a formatted two-line element set per satellite of the
// shell, numbered from firstSatNum. The TLEs round-trip through
// orbit.ParseTLE/NewSGP4, enabling SGP4-based propagation of the shell.
func (s Shell) TLEs(firstSatNum int, epoch time.Time) []string {
	lines := make([]string, 0, 2*s.Size())
	for plane := 0; plane < s.Planes; plane++ {
		for slot := 0; slot < s.SatsPerPlane; slot++ {
			el := s.elements(plane, slot, epoch)
			n := 86400 / (2 * math.Pi) * el.MeanMotion() // rev/day
			tle := orbit.TLE{
				SatNum:         firstSatNum + plane*s.SatsPerPlane + slot,
				Epoch:          epoch,
				InclinationDeg: s.InclinationDeg,
				RAANDeg:        el.RAANRad * geo.Rad,
				Eccentricity:   0.0001,
				MeanAnomalyDeg: el.MeanAnomalyRad * geo.Rad,
				MeanMotion:     n,
			}
			l1, l2 := tle.Format()
			lines = append(lines, l1, l2)
		}
	}
	return lines
}
