package orbit

import (
	"math"
	"time"

	"leosim/internal/geo"
)

// SolveKepler solves Kepler's equation M = E − e·sin(E) for the eccentric
// anomaly E (radians) given mean anomaly M (radians) and eccentricity ecc.
// Newton–Raphson converges in a handful of iterations for e < 0.9; a bisection
// fallback guards pathological cases.
func SolveKepler(meanAnom, ecc float64) float64 {
	m := math.Mod(meanAnom, 2*math.Pi)
	if m < 0 {
		m += 2 * math.Pi
	}
	if ecc == 0 {
		return m
	}
	// Initial guess per Vallado: E0 = M + e for M < π, else M − e.
	e0 := m + ecc
	if m > math.Pi {
		e0 = m - ecc
	}
	for i := 0; i < 50; i++ {
		f := e0 - ecc*math.Sin(e0) - m
		fp := 1 - ecc*math.Cos(e0)
		d := f / fp
		e0 -= d
		if math.Abs(d) < 1e-12 {
			return e0
		}
	}
	return e0
}

// TrueAnomaly converts eccentric anomaly E to true anomaly ν, both radians.
func TrueAnomaly(eccAnom, ecc float64) float64 {
	s := math.Sqrt(1-ecc*ecc) * math.Sin(eccAnom)
	c := math.Cos(eccAnom) - ecc
	return math.Atan2(s, c)
}

// circAnomalySinCos returns sin and cos of m0+theta through the angle-sum
// identity. For circular orbits the true anomaly IS the mean anomaly, so this
// replaces the SolveKepler→TrueAnomaly→Sincos chain. The identity rounds
// about 1 ulp (≈1 µm of position) away from Sincos(m0+theta); the recorded
// experiment outputs carry this form's bits, so it stays as written.
func circAnomalySinCos(m0, theta float64) (sinM, cosM float64) {
	sM0, cM0 := math.Sincos(m0)
	sT, cT := math.Sincos(theta)
	return sM0*cT + cM0*sT, cM0*cT - sM0*sT
}

// Propagator yields satellite positions over time.
type Propagator interface {
	// PositionECI returns the ECI position in km at time t.
	PositionECI(t time.Time) geo.Vec3
	// PositionECEF returns the Earth-fixed position in km at time t.
	PositionECEF(t time.Time) geo.Vec3
}

// KeplerPropagator propagates classical elements analytically. When J2Secular
// is set, the dominant secular J2 rates (node regression, perigee rotation,
// and the mean-motion correction to the mean anomaly) are applied — this is
// the propagation model the network experiments use, matching what LEO
// simulation frameworks in this space (Hypatia, StarPerf) do.
type KeplerPropagator struct {
	El        Elements
	J2Secular bool
}

// NewKepler returns a J2-secular Kepler propagator for el.
func NewKepler(el Elements) *KeplerPropagator {
	return &KeplerPropagator{El: el, J2Secular: true}
}

// PositionECI implements Propagator.
func (k *KeplerPropagator) PositionECI(t time.Time) geo.Vec3 {
	pos, _ := k.PosVelECI(t)
	return pos
}

// PositionECEF implements Propagator.
func (k *KeplerPropagator) PositionECEF(t time.Time) geo.Vec3 {
	return geo.ECIToECEF(k.PositionECI(t), t)
}

// PosVelECI returns ECI position (km) and velocity (km/s) at t.
func (k *KeplerPropagator) PosVelECI(t time.Time) (geo.Vec3, geo.Vec3) {
	el := k.El
	dt := t.Sub(el.Epoch).Seconds()
	n := el.MeanMotion()

	raan := el.RAANRad
	argp := el.ArgPerigeeRad
	m := el.MeanAnomalyRad + n*dt
	theta := n * dt
	if k.J2Secular {
		raan += el.NodePrecessionRate() * dt
		argp += el.ArgPerigeePrecessionRate() * dt
		// Secular J2 drift of the mean anomaly (change of anomalistic
		// period): dM/dt extra = (3/4) J2 (Re/p)^2 n sqrt(1-e^2) (3cos^2 i - 1).
		p := el.SemiMajorKm * (1 - el.Eccentricity*el.Eccentricity)
		ratio := geo.EarthEquatorialRadius / p
		ci := math.Cos(el.InclinationRad)
		drift := 0.75 * J2 * ratio * ratio * n *
			math.Sqrt(1-el.Eccentricity*el.Eccentricity) * (3*ci*ci - 1)
		m += drift * dt
		theta += drift * dt
	}

	var sinNu, cosNu, r float64
	if el.Eccentricity == 0 {
		// Circular orbits (every Walker-shell satellite): ν ≡ M = M0 + θ
		// exactly, evaluated through the angle-sum identity.
		sinNu, cosNu = circAnomalySinCos(el.MeanAnomalyRad, theta)
		r = el.SemiMajorKm
	} else {
		ea := SolveKepler(m, el.Eccentricity)
		nu := TrueAnomaly(ea, el.Eccentricity)
		r = el.SemiMajorKm * (1 - el.Eccentricity*math.Cos(ea))
		sinNu, cosNu = math.Sincos(nu)
	}
	pf := geo.Vec3{X: r * cosNu, Y: r * sinNu}
	pSLR := el.SemiMajorKm * (1 - el.Eccentricity*el.Eccentricity)
	vFac := math.Sqrt(geo.EarthMu / pSLR)
	vf := geo.Vec3{X: -vFac * sinNu, Y: vFac * (el.Eccentricity + cosNu)}

	rot := perifocalToECI(el.InclinationRad, raan, argp)
	return rot.apply(pf), rot.apply(vf)
}

// mat3 is a 3×3 rotation matrix in row-major order.
type mat3 [9]float64

func (m mat3) apply(v geo.Vec3) geo.Vec3 {
	return geo.Vec3{
		X: m[0]*v.X + m[1]*v.Y + m[2]*v.Z,
		Y: m[3]*v.X + m[4]*v.Y + m[5]*v.Z,
		Z: m[6]*v.X + m[7]*v.Y + m[8]*v.Z,
	}
}

// perifocalToECI builds the rotation from the perifocal (PQW) frame to ECI
// given inclination i, RAAN Ω and argument of perigee ω (radians).
func perifocalToECI(i, raan, argp float64) mat3 {
	so, co := math.Sincos(raan)
	sw, cw := math.Sincos(argp)
	si, ci := math.Sincos(i)
	return mat3{
		co*cw - so*sw*ci, -co*sw - so*cw*ci, so * si,
		so*cw + co*sw*ci, -so*sw + co*cw*ci, -co * si,
		sw * si, cw * si, ci,
	}
}

// SubsatellitePoint returns the geodetic point directly beneath the satellite
// at time t (altitude preserved).
func SubsatellitePoint(p Propagator, t time.Time) geo.LatLon {
	return geo.FromECEF(p.PositionECEF(t))
}
