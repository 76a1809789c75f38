package orbit

import (
	"math"
	"time"

	"leosim/internal/geo"
)

// KeplerBatch evaluates a fleet of analytic Kepler propagators at one instant
// with the per-call constants hoisted out. Every value it produces is
// bit-identical to calling PositionECI on each propagator — the expression
// trees are the same; only redundant recomputation is removed:
//
//   - the secular rates (mean motion, J2 node/perigee precession, the J2
//     mean-anomaly drift coefficient) are pure functions of the elements,
//     computed once at construction instead of per call;
//   - the perifocal→ECI rotation matrix depends on (i, Ω(t), ω(t)), which a
//     Walker constellation shares across a whole orbital plane — satellites
//     are laid out plane-major, so the matrix is rebuilt only when those
//     inputs change from the previous satellite (once per plane, not per
//     satellite);
//   - the ECEF rotation angle's sine/cosine are computed once per call
//     instead of once per satellite.
//
// Every snapshot build leans on this: satellite propagation is the floor
// under each one, and the hoisting roughly halves it without perturbing a
// single output bit.
type KeplerBatch struct {
	props []*KeplerPropagator
	// Cached per-satellite secular constants (identical bits to the values
	// PosVelECI derives per call).
	n, raanRate, argpRate, mDrift, sq1me2 []float64
	// sM0 and cM0 cache Sincos(MeanAnomalyRad) for circular orbits — one of
	// the two factors of PosVelECI's angle-sum evaluation (the other,
	// Sincos(θ), is shared across each orbital plane).
	sM0, cM0 []float64
}

// NewKeplerBatch wraps props when every propagator is an analytic
// *KeplerPropagator; ok is false otherwise (e.g. SGP4 fleets), in which case
// callers keep the per-satellite path.
func NewKeplerBatch(props []Propagator) (b *KeplerBatch, ok bool) {
	ks := make([]*KeplerPropagator, len(props))
	for i, p := range props {
		k, isK := p.(*KeplerPropagator)
		if !isK {
			return nil, false
		}
		ks[i] = k
	}
	b = &KeplerBatch{
		props:    ks,
		n:        make([]float64, len(ks)),
		raanRate: make([]float64, len(ks)),
		argpRate: make([]float64, len(ks)),
		mDrift:   make([]float64, len(ks)),
		sq1me2:   make([]float64, len(ks)),
		sM0:      make([]float64, len(ks)),
		cM0:      make([]float64, len(ks)),
	}
	for i, k := range ks {
		el := k.El
		b.n[i] = el.MeanMotion()
		b.sq1me2[i] = math.Sqrt(1 - el.Eccentricity*el.Eccentricity)
		b.sM0[i], b.cM0[i] = math.Sincos(el.MeanAnomalyRad)
		if k.J2Secular {
			b.raanRate[i] = el.NodePrecessionRate()
			b.argpRate[i] = el.ArgPerigeePrecessionRate()
			// The PosVelECI mean-anomaly drift term with the trailing ·dt
			// factored off; the multiplication grouping up to that point is
			// preserved so coeff·dt reproduces the original product exactly.
			p := el.SemiMajorKm * (1 - el.Eccentricity*el.Eccentricity)
			ratio := geo.EarthEquatorialRadius / p
			ci := math.Cos(el.InclinationRad)
			b.mDrift[i] = 0.75 * J2 * ratio * ratio * b.n[i] *
				math.Sqrt(1-el.Eccentricity*el.Eccentricity) * (3*ci*ci - 1)
		}
	}
	return b, true
}

// PositionsECEFRange evaluates satellites [lo,hi) into dst[lo:hi]. Ranges may
// be evaluated concurrently on disjoint chunks; the per-plane matrix reuse
// then resets at each chunk boundary, which costs one extra matrix build and
// changes nothing else.
func (b *KeplerBatch) PositionsECEFRange(t time.Time, lo, hi int, dst []geo.Vec3) {
	sinT, cosT := math.Sincos(-geo.GMST(t))
	var (
		rot      mat3
		haveRot  bool
		prevEl   Elements
		dt       float64
		prevSec  bool
		raan     float64
		argp     float64
		haveTime bool
		sTh, cTh float64
	)
	for i := lo; i < hi; i++ {
		k := b.props[i]
		el := k.El
		samePlane := haveRot && prevSec == k.J2Secular &&
			el.SemiMajorKm == prevEl.SemiMajorKm &&
			el.Eccentricity == prevEl.Eccentricity &&
			el.InclinationRad == prevEl.InclinationRad &&
			el.RAANRad == prevEl.RAANRad &&
			el.ArgPerigeeRad == prevEl.ArgPerigeeRad &&
			el.Epoch.Equal(prevEl.Epoch)
		if !samePlane {
			if !haveTime || !el.Epoch.Equal(prevEl.Epoch) {
				dt = t.Sub(el.Epoch).Seconds()
				haveTime = true
			}
			raan = el.RAANRad
			argp = el.ArgPerigeeRad
			if k.J2Secular {
				raan += b.raanRate[i] * dt
				argp += b.argpRate[i] * dt
			}
			rot = perifocalToECI(el.InclinationRad, raan, argp)
			if el.Eccentricity == 0 {
				// θ is a pure function of the plane-shared constants, so
				// its Sincos — the second factor of the angle-sum identity
				// in PosVelECI's circular branch — is too.
				theta := b.n[i] * dt
				if k.J2Secular {
					theta += b.mDrift[i] * dt
				}
				sTh, cTh = math.Sincos(theta)
			}
			haveRot = true
			prevEl = el
			prevSec = k.J2Secular
		}
		var px, py float64
		if el.Eccentricity == 0 {
			// circAnomalySinCos with both Sincos factors cached: Sincos(M0)
			// per satellite, Sincos(θ) per plane. Same products, same bits.
			sinM := b.sM0[i]*cTh + b.cM0[i]*sTh
			cosM := b.cM0[i]*cTh - b.sM0[i]*sTh
			px = el.SemiMajorKm * cosM
			py = el.SemiMajorKm * sinM
		} else {
			m := el.MeanAnomalyRad + b.n[i]*dt
			if k.J2Secular {
				m += b.mDrift[i] * dt
			}
			ea := SolveKepler(m, el.Eccentricity)
			sinEa := math.Sin(ea)
			cosEa := math.Cos(ea)
			// TrueAnomaly(ea, e) with √(1−e²) cached — the same product, so
			// the same bits.
			nu := math.Atan2(b.sq1me2[i]*sinEa, cosEa-el.Eccentricity)
			r := el.SemiMajorKm * (1 - el.Eccentricity*cosEa)
			sinNu, cosNu := math.Sincos(nu)
			px = r * cosNu
			py = r * sinNu
		}
		// rot.apply with the perifocal Z=0 terms dropped (they only add a
		// signed zero), then RotateZ by GMST with the shared sine/cosine.
		x := rot[0]*px + rot[1]*py
		y := rot[3]*px + rot[4]*py
		z := rot[6]*px + rot[7]*py
		dst[i] = geo.Vec3{
			X: cosT*x - sinT*y,
			Y: sinT*x + cosT*y,
			Z: z,
		}
	}
}
