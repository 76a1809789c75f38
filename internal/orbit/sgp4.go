package orbit

import (
	"fmt"
	"math"
	"time"

	"leosim/internal/geo"
)

// SGP4 is a port of the standard near-Earth SGP4 propagator (Vallado's
// reference implementation, WGS-72 constants, as used operationally with
// NORAD TLEs). Deep-space orbits (period ≥ 225 min) are out of scope for LEO
// broadband constellations and are rejected at initialization.
//
// The propagator produces positions in the TEME inertial frame; for the link
// geometry in this simulator TEME is treated as ECI and rotated to
// Earth-fixed via GMST, which is the customary approximation in LEO network
// simulation (sub-kilometer at these altitudes over a day).
type SGP4 struct {
	epoch time.Time

	// Initialization state (names follow the reference implementation).
	isimp                        bool
	bstar                        float64
	inclo, nodeo, ecco, argpo    float64
	mo, noUnkozai                float64
	aycof, con41, cc1, cc4, cc5  float64
	d2, d3, d4                   float64
	delmo, eta, argpdot          float64
	omgcof, sinmao, t2cof, t3cof float64
	t4cof, t5cof, x1mth2, x7thm1 float64
	mdot, nodedot, xlcof, xmcof  float64
	nodecf                       float64
}

// WGS-72 gravitational constants, as used by the operational SGP4.
const (
	sgp4Mu    = 398600.8 // km^3/s^2
	sgp4Re    = 6378.135 // km
	sgp4J2    = 0.001082616
	sgp4J3    = -0.00000253881
	sgp4J4    = -0.00000165597
	sgp4J3oJ2 = sgp4J3 / sgp4J2
	sgp4X2o3  = 2.0 / 3.0
)

var (
	// sgp4XKE is sqrt(mu) in units of (earth radii)^1.5 / minute.
	sgp4XKE    = 60.0 / math.Sqrt(sgp4Re*sgp4Re*sgp4Re/sgp4Mu)
	sgp4VKmSec = sgp4Re * sgp4XKE / 60.0
)

// NewSGP4 initializes the propagator from a TLE.
func NewSGP4(t TLE) (*SGP4, error) {
	s := &SGP4{
		epoch: t.Epoch,
		bstar: t.BStar,
		inclo: t.InclinationDeg * geo.Deg,
		nodeo: t.RAANDeg * geo.Deg,
		ecco:  t.Eccentricity,
		argpo: t.ArgPerigeeDeg * geo.Deg,
		mo:    t.MeanAnomalyDeg * geo.Deg,
	}
	noKozai := t.MeanMotionRadPerMin()
	if noKozai <= 0 {
		return nil, fmt.Errorf("sgp4: non-positive mean motion")
	}
	if s.ecco < 0 || s.ecco >= 1 {
		return nil, fmt.Errorf("sgp4: eccentricity %v outside [0,1)", s.ecco)
	}

	// ---- initl: recover original (un-Kozai'd) mean motion. ----
	eccsq := s.ecco * s.ecco
	omeosq := 1 - eccsq
	rteosq := math.Sqrt(omeosq)
	cosio := math.Cos(s.inclo)
	cosio2 := cosio * cosio

	ak := math.Pow(sgp4XKE/noKozai, sgp4X2o3)
	d1 := 0.75 * sgp4J2 * (3*cosio2 - 1) / (rteosq * omeosq)
	del := d1 / (ak * ak)
	adel := ak * (1 - del*del - del*(1.0/3.0+134.0*del*del/81.0))
	del = d1 / (adel * adel)
	s.noUnkozai = noKozai / (1 + del)

	ao := math.Pow(sgp4XKE/s.noUnkozai, sgp4X2o3)
	sinio := math.Sin(s.inclo)
	po := ao * omeosq
	con42 := 1 - 5*cosio2
	s.con41 = -con42 - 2*cosio2
	posq := po * po
	rp := ao * (1 - s.ecco)

	// Reject deep-space orbits: this port implements near-Earth SGP4 only.
	if 2*math.Pi/s.noUnkozai >= 225.0 {
		return nil, fmt.Errorf("sgp4: deep-space orbit (period ≥ 225 min) not supported")
	}
	if omeosq < 0 {
		return nil, fmt.Errorf("sgp4: invalid eccentricity")
	}

	s.isimp = rp < 220.0/sgp4Re+1.0

	const ss = 78.0/sgp4Re + 1.0
	qzms2t := math.Pow((120.0-78.0)/sgp4Re, 4)
	sfour := ss
	qzms24 := qzms2t
	perige := (rp - 1) * sgp4Re
	if perige < 156 {
		sfour = perige - 78
		if perige < 98 {
			sfour = 20
		}
		qzms24 = math.Pow((120-sfour)/sgp4Re, 4)
		sfour = sfour/sgp4Re + 1
	}
	pinvsq := 1 / posq

	tsi := 1 / (ao - sfour)
	s.eta = ao * s.ecco * tsi
	etasq := s.eta * s.eta
	eeta := s.ecco * s.eta
	psisq := math.Abs(1 - etasq)
	coef := qzms24 * math.Pow(tsi, 4)
	coef1 := coef / math.Pow(psisq, 3.5)
	cc2 := coef1 * s.noUnkozai * (ao*(1+1.5*etasq+eeta*(4+etasq)) +
		0.375*sgp4J2*tsi/psisq*s.con41*(8+3*etasq*(8+etasq)))
	s.cc1 = s.bstar * cc2
	cc3 := 0.0
	if s.ecco > 1e-4 {
		cc3 = -2 * coef * tsi * sgp4J3oJ2 * s.noUnkozai * sinio / s.ecco
	}
	s.x1mth2 = 1 - cosio2
	s.cc4 = 2 * s.noUnkozai * coef1 * ao * omeosq *
		(s.eta*(2+0.5*etasq) + s.ecco*(0.5+2*etasq) -
			sgp4J2*tsi/(ao*psisq)*(-3*s.con41*(1-2*eeta+etasq*(1.5-0.5*eeta))+
				0.75*s.x1mth2*(2*etasq-eeta*(1+etasq))*math.Cos(2*s.argpo)))
	s.cc5 = 2 * coef1 * ao * omeosq * (1 + 2.75*(etasq+eeta) + eeta*etasq)
	cosio4 := cosio2 * cosio2
	temp1 := 1.5 * sgp4J2 * pinvsq * s.noUnkozai
	temp2 := 0.5 * temp1 * sgp4J2 * pinvsq
	temp3 := -0.46875 * sgp4J4 * pinvsq * pinvsq * s.noUnkozai
	s.mdot = s.noUnkozai + 0.5*temp1*rteosq*s.con41 +
		0.0625*temp2*rteosq*(13-78*cosio2+137*cosio4)
	s.argpdot = -0.5*temp1*con42 + 0.0625*temp2*(7-114*cosio2+395*cosio4) +
		temp3*(3-36*cosio2+49*cosio4)
	xhdot1 := -temp1 * cosio
	s.nodedot = xhdot1 + (0.5*temp2*(4-19*cosio2)+2*temp3*(3-7*cosio2))*cosio
	s.omgcof = s.bstar * cc3 * math.Cos(s.argpo)
	s.xmcof = 0
	if s.ecco > 1e-4 {
		s.xmcof = -sgp4X2o3 * coef * s.bstar / eeta
	}
	s.nodecf = 3.5 * omeosq * xhdot1 * s.cc1
	s.t2cof = 1.5 * s.cc1
	if math.Abs(cosio+1) > 1.5e-12 {
		s.xlcof = -0.25 * sgp4J3oJ2 * sinio * (3 + 5*cosio) / (1 + cosio)
	} else {
		s.xlcof = -0.25 * sgp4J3oJ2 * sinio * (3 + 5*cosio) / 1.5e-12
	}
	s.aycof = -0.5 * sgp4J3oJ2 * sinio
	s.delmo = math.Pow(1+s.eta*math.Cos(s.mo), 3)
	s.sinmao = math.Sin(s.mo)
	s.x7thm1 = 7*cosio2 - 1

	if !s.isimp {
		cc1sq := s.cc1 * s.cc1
		s.d2 = 4 * ao * tsi * cc1sq
		temp := s.d2 * tsi * s.cc1 / 3
		s.d3 = (17*ao + sfour) * temp
		s.d4 = 0.5 * temp * ao * tsi * (221*ao + 31*sfour) * s.cc1
		s.t3cof = s.d2 + 2*cc1sq
		s.t4cof = 0.25 * (3*s.d3 + s.cc1*(12*s.d2+10*cc1sq))
		s.t5cof = 0.2 * (3*s.d4 + 12*s.cc1*s.d3 + 6*s.d2*s.d2 +
			15*cc1sq*(2*s.d2+cc1sq))
	}
	return s, nil
}

// PosVelECI returns the TEME/ECI position (km) and velocity (km/s) at time t.
func (s *SGP4) PosVelECI(t time.Time) (geo.Vec3, geo.Vec3, error) {
	tsince := t.Sub(s.epoch).Minutes()
	return s.posVelAt(tsince)
}

// PositionECI implements Propagator. Propagation errors (decay, hyperbolic
// drag solutions) surface as a zero vector; experiments that care should use
// PosVelECI.
func (s *SGP4) PositionECI(t time.Time) geo.Vec3 {
	p, _, err := s.PosVelECI(t)
	if err != nil {
		return geo.Vec3{}
	}
	return p
}

// PositionECEF implements Propagator.
func (s *SGP4) PositionECEF(t time.Time) geo.Vec3 {
	return geo.ECIToECEF(s.PositionECI(t), t)
}

// posVelAt propagates tsince minutes past epoch.
func (s *SGP4) posVelAt(tsince float64) (geo.Vec3, geo.Vec3, error) {
	const twopi = 2 * math.Pi

	// Secular gravity and atmospheric drag.
	xmdf := s.mo + s.mdot*tsince
	argpdf := s.argpo + s.argpdot*tsince
	nodedf := s.nodeo + s.nodedot*tsince
	argpm := argpdf
	mm := xmdf
	t2 := tsince * tsince
	nodem := nodedf + s.nodecf*t2
	tempa := 1 - s.cc1*tsince
	tempe := s.bstar * s.cc4 * tsince
	templ := s.t2cof * t2

	if !s.isimp {
		delomg := s.omgcof * tsince
		delmTemp := 1 + s.eta*math.Cos(xmdf)
		delm := s.xmcof * (delmTemp*delmTemp*delmTemp - s.delmo)
		temp := delomg + delm
		mm = xmdf + temp
		argpm = argpdf - temp
		t3 := t2 * tsince
		t4 := t3 * tsince
		tempa = tempa - s.d2*t2 - s.d3*t3 - s.d4*t4
		tempe += s.bstar * s.cc5 * (math.Sin(mm) - s.sinmao)
		templ = templ + s.t3cof*t3 + t4*(s.t4cof+tsince*s.t5cof)
	}

	nm := s.noUnkozai
	em := s.ecco
	inclm := s.inclo
	if nm <= 0 {
		return geo.Vec3{}, geo.Vec3{}, fmt.Errorf("sgp4: mean motion %v non-positive", nm)
	}
	am := math.Pow(sgp4XKE/nm, sgp4X2o3) * tempa * tempa
	nm = sgp4XKE / math.Pow(am, 1.5)
	em -= tempe
	if em >= 1 || em < -0.001 {
		return geo.Vec3{}, geo.Vec3{}, fmt.Errorf("sgp4: eccentricity %v out of range (decayed?)", em)
	}
	if em < 1e-6 {
		em = 1e-6
	}
	mm += s.noUnkozai * templ
	xlm := mm + argpm + nodem

	nodem = math.Mod(nodem, twopi)
	argpm = math.Mod(argpm, twopi)
	xlm = math.Mod(xlm, twopi)
	mm = math.Mod(xlm-argpm-nodem, twopi)
	if mm < 0 {
		mm += twopi
	}

	// No deep-space contribution: periodics are the near-Earth ones only.
	ep := em
	xincp := inclm
	argpp := argpm
	nodep := nodem
	mp := mm
	sinip := math.Sin(xincp)
	cosip := math.Cos(xincp)

	// Long-period periodics.
	axnl := ep * math.Cos(argpp)
	temp := 1 / (am * (1 - ep*ep))
	aynl := ep*math.Sin(argpp) + temp*s.aycof
	xl := mp + argpp + nodep + temp*s.xlcof*axnl

	// Kepler's equation for (E + ω).
	u := math.Mod(xl-nodep, twopi)
	eo1 := u
	var sineo1, coseo1 float64
	for ktr := 0; ktr < 10; ktr++ {
		sineo1 = math.Sin(eo1)
		coseo1 = math.Cos(eo1)
		tem5 := 1 - coseo1*axnl - sineo1*aynl
		tem5 = (u - aynl*coseo1 + axnl*sineo1 - eo1) / tem5
		if math.Abs(tem5) >= 0.95 {
			if tem5 > 0 {
				tem5 = 0.95
			} else {
				tem5 = -0.95
			}
		}
		eo1 += tem5
		if math.Abs(tem5) < 1e-12 {
			break
		}
	}

	// Short-period preliminary quantities.
	ecose := axnl*coseo1 + aynl*sineo1
	esine := axnl*sineo1 - aynl*coseo1
	el2 := axnl*axnl + aynl*aynl
	pl := am * (1 - el2)
	if pl < 0 {
		return geo.Vec3{}, geo.Vec3{}, fmt.Errorf("sgp4: semi-latus rectum %v < 0", pl)
	}
	rl := am * (1 - ecose)
	rdotl := math.Sqrt(am) * esine / rl
	rvdotl := math.Sqrt(pl) / rl
	betal := math.Sqrt(1 - el2)
	temp = esine / (1 + betal)
	sinu := am / rl * (sineo1 - aynl - axnl*temp)
	cosu := am / rl * (coseo1 - axnl + aynl*temp)
	su := math.Atan2(sinu, cosu)
	sin2u := (cosu + cosu) * sinu
	cos2u := 1 - 2*sinu*sinu
	temp = 1 / pl
	temp1 := 0.5 * sgp4J2 * temp
	temp2 := temp1 * temp

	// Short-period periodics.
	mrt := rl*(1-1.5*temp2*betal*s.con41) + 0.5*temp1*s.x1mth2*cos2u
	su -= 0.25 * temp2 * s.x7thm1 * sin2u
	xnode := nodep + 1.5*temp2*cosip*sin2u
	xinc := xincp + 1.5*temp2*cosip*sinip*cos2u
	mvt := rdotl - nm*temp1*s.x1mth2*sin2u/sgp4XKE
	rvdot := rvdotl + nm*temp1*(s.x1mth2*cos2u+1.5*s.con41)/sgp4XKE

	// Orientation vectors and position/velocity.
	sinsu, cossu := math.Sincos(su)
	snod, cnod := math.Sincos(xnode)
	sini, cosi := math.Sincos(xinc)
	xmx := -snod * cosi
	xmy := cnod * cosi
	ux := xmx*sinsu + cnod*cossu
	uy := xmy*sinsu + snod*cossu
	uz := sini * sinsu
	vx := xmx*cossu - cnod*sinsu
	vy := xmy*cossu - snod*sinsu
	vz := sini * cossu

	if mrt < 1 {
		return geo.Vec3{}, geo.Vec3{}, fmt.Errorf("sgp4: satellite decayed (r = %.3f earth radii)", mrt)
	}
	r := geo.Vec3{X: mrt * ux * sgp4Re, Y: mrt * uy * sgp4Re, Z: mrt * uz * sgp4Re}
	v := geo.Vec3{
		X: (mvt*ux + rvdot*vx) * sgp4VKmSec,
		Y: (mvt*uy + rvdot*vy) * sgp4VKmSec,
		Z: (mvt*uz + rvdot*vz) * sgp4VKmSec,
	}
	return r, v, nil
}
