package itur

import (
	"fmt"
	"math"
)

// LinkParams describe one ground(or aircraft)-satellite radio link for
// attenuation purposes.
type LinkParams struct {
	// LatDeg, LonDeg locate the ground end of the slant path.
	LatDeg, LonDeg float64
	// ElevationDeg is the link elevation angle at the ground terminal.
	ElevationDeg float64
	// FreqGHz is the carrier frequency.
	FreqGHz float64
	// Pol is the polarization (default PolCircular).
	Pol Polarization
	// StationHeightKm is the terminal altitude above sea level. Aircraft
	// relays at cruise altitude sit above the rain and most of the
	// troposphere, which this model honors.
	StationHeightKm float64
	// AntennaDiameterM is the ground antenna diameter for scintillation
	// averaging; zero defaults to 0.6 m (user-terminal scale).
	AntennaDiameterM float64
}

// validate clamps and sanity-checks parameters.
func (lp *LinkParams) validate() error {
	if lp.FreqGHz <= 0 {
		return fmt.Errorf("itur: frequency must be positive, got %v", lp.FreqGHz)
	}
	if lp.ElevationDeg <= 0 || lp.ElevationDeg > 90 {
		return fmt.Errorf("itur: elevation %v° outside (0,90]", lp.ElevationDeg)
	}
	if lp.AntennaDiameterM == 0 {
		lp.AntennaDiameterM = 0.6
	}
	return nil
}

// GaseousAttenuation returns the gaseous (oxygen + water vapour) slant-path
// attenuation in dB. It uses the classic P.676 approximation for sea-level
// specific attenuations with equivalent heights, divided by sin(elevation).
// Gaseous attenuation is essentially deterministic (no exceedance
// probability).
func GaseousAttenuation(lp LinkParams) (float64, error) {
	if err := lp.validate(); err != nil {
		return 0, err
	}
	f := lp.FreqGHz
	rho := WaterVapourDensity(lp.LatDeg)
	// Oxygen specific attenuation (dB/km), valid f < 54 GHz.
	gammaO := (7.2/(f*f+0.34) + 0.62/(math.Pow(54-f, 1.16)+0.83)) * f * f * 1e-3
	// Water vapour specific attenuation (dB/km), f < 350 GHz.
	gammaW := (0.067 + 3/(sq(f-22.3)+7.3) + 9/(sq(f-183.3)+6) +
		4.3/(sq(f-323.8)+10)) * f * f * rho * 1e-4
	const hO, hW = 6.0, 2.0 // equivalent heights, km
	// Terminals above the equivalent layer see an exponentially thinner
	// column.
	attO := gammaO * hO * math.Exp(-lp.StationHeightKm/hO)
	attW := gammaW * hW * math.Exp(-lp.StationHeightKm/hW)
	return (attO + attW) / sinDeg(lp.ElevationDeg), nil
}

// CloudAttenuation returns cloud attenuation in dB exceeded p% of the time
// (P.840-style: columnar liquid water times a frequency-dependent specific
// coefficient, over sin(elevation)).
func CloudAttenuation(lp LinkParams, p float64) (float64, error) {
	if err := lp.validate(); err != nil {
		return 0, err
	}
	// Aircraft at cruise altitude are above the liquid-water cloud deck.
	if lp.StationHeightKm >= 6 {
		return 0, nil
	}
	l := ColumnarCloudWater(lp.LatDeg, lp.LonDeg, p)
	kl := 0.0007 * math.Pow(lp.FreqGHz, 1.9) // simplified Rayleigh fit, 0 °C
	return l * kl / sinDeg(lp.ElevationDeg), nil
}

// RainAttenuation returns rain attenuation in dB exceeded p% of an average
// year, implementing the P.618 §2.2.1.1 slant-path procedure on top of the
// synthetic R0.01 climatology. Valid for p in [0.001, 5].
func RainAttenuation(lp LinkParams, p float64) (float64, error) {
	if err := lp.validate(); err != nil {
		return 0, err
	}
	if p < 0.001 || p > 5 {
		return 0, fmt.Errorf("itur: rain exceedance p=%v%% outside [0.001,5]", p)
	}
	theta := lp.ElevationDeg
	sinT := sinDeg(theta)
	hs := lp.StationHeightKm
	hr := RainHeightKm(lp.LatDeg)
	if hr <= hs {
		return 0, nil // terminal above the rain (aircraft)
	}
	// Slant path length below rain height.
	var ls float64
	if theta >= 5 {
		ls = (hr - hs) / sinT
	} else {
		ls = 2 * (hr - hs) /
			(math.Sqrt(sinT*sinT+2*(hr-hs)/8500) + sinT)
	}
	lg := ls * cosDeg(theta)
	r001 := RainRate001(lp.LatDeg, lp.LonDeg)
	gammaR := RainSpecificAttenuation(lp.FreqGHz, lp.Pol, r001)
	f := lp.FreqGHz

	// Horizontal reduction factor.
	hrf := 1 / (1 + 0.78*math.Sqrt(lg*gammaR/f) - 0.38*(1-math.Exp(-2*lg)))
	// Vertical adjustment factor.
	zeta := math.Atan2(hr-hs, lg*hrf) * 180 / math.Pi
	var lr float64
	if zeta > theta {
		lr = lg * hrf / cosDeg(theta)
	} else {
		lr = (hr - hs) / sinT
	}
	chi := 0.0
	if a := math.Abs(lp.LatDeg); a < 36 {
		chi = 36 - a
	}
	v001 := 1 / (1 + math.Sqrt(sinT)*
		(31*(1-math.Exp(-theta/(1+chi)))*math.Sqrt(lr*gammaR)/(f*f)-0.45))
	le := lr * v001
	a001 := gammaR * le
	if a001 <= 0 {
		return 0, nil
	}

	// Scale from 0.01% to p%.
	var beta float64
	absLat := math.Abs(lp.LatDeg)
	switch {
	case p >= 1 || absLat >= 36:
		beta = 0
	case theta >= 25:
		beta = -0.005 * (absLat - 36)
	default:
		beta = -0.005*(absLat-36) + 1.8 - 4.25*sinT
	}
	exp := -(0.655 + 0.033*math.Log(p) - 0.045*math.Log(a001) -
		beta*(1-p)*sinT)
	return a001 * math.Pow(p/0.01, exp), nil
}

// ScintillationAttenuation returns the tropospheric scintillation fade depth
// in dB exceeded p% of the time (P.618 §2.4.1). Valid for p in [0.01, 50].
func ScintillationAttenuation(lp LinkParams, p float64) (float64, error) {
	if err := lp.validate(); err != nil {
		return 0, err
	}
	if p < 0.01 || p > 50 {
		return 0, fmt.Errorf("itur: scintillation p=%v%% outside [0.01,50]", p)
	}
	// Scintillation arises in the first few km of troposphere; airborne
	// terminals skip it.
	if lp.StationHeightKm >= 6 {
		return 0, nil
	}
	nwet := WetRefractivity(lp.LatDeg)
	sigmaRef := 3.6e-3 + 1e-4*nwet // dB
	f := lp.FreqGHz
	sinT := sinDeg(lp.ElevationDeg)
	const hL = 1000.0                                    // turbulence height, m
	lM := 2 * hL / (math.Sqrt(sinT*sinT+2.35e-4) + sinT) // effective path, m
	// Antenna averaging: x = 1.22·D_eff²·(f/L), f in GHz, L in m.
	dEff := math.Sqrt(0.55) * lp.AntennaDiameterM // aperture efficiency 0.55
	xArg := 1.22 * dEff * dEff * f / lM
	g := math.Sqrt(math.Abs(3.86*math.Pow(xArg*xArg+1, 11.0/12.0)*
		math.Sin(11.0/6.0*math.Atan(1/xArg)) - 7.08*math.Pow(xArg, 5.0/6.0)))
	if math.IsNaN(g) || g > 1 {
		g = 1
	}
	sigma := sigmaRef * math.Pow(f, 7.0/12.0) * g / math.Pow(sinT, 1.2)
	lp10 := math.Log10(p)
	aP := -0.061*lp10*lp10*lp10 + 0.072*lp10*lp10 - 1.71*lp10 + 3.0
	if aP < 0 {
		aP = 0
	}
	return aP * sigma, nil
}

// TotalAttenuation returns the combined attenuation in dB exceeded p% of the
// time, using the P.618 §2.5 combination:
//
//	A(p) = A_gas + sqrt((A_rain(p)+A_cloud(p))² + A_scint(p)²).
func TotalAttenuation(lp LinkParams, p float64) (float64, error) {
	if err := lp.validate(); err != nil {
		return 0, err
	}
	ag, err := GaseousAttenuation(lp)
	if err != nil {
		return 0, err
	}
	ar, err := RainAttenuation(lp, clampF(p, 0.001, 5))
	if err != nil {
		return 0, err
	}
	ac, err := CloudAttenuation(lp, p)
	if err != nil {
		return 0, err
	}
	as, err := ScintillationAttenuation(lp, clampF(p, 0.01, 50))
	if err != nil {
		return 0, err
	}
	return ag + math.Sqrt(sq(ar+ac)+sq(as)), nil
}

// ReceivedPowerFraction converts attenuation in dB to the fraction of power
// received (e.g. 1 dB → ≈0.794, the "11% reduction" of §6).
func ReceivedPowerFraction(dB float64) float64 {
	return math.Pow(10, -dB/10)
}

func sinDeg(d float64) float64 { return math.Sin(d * math.Pi / 180) }
func cosDeg(d float64) float64 { return math.Cos(d * math.Pi / 180) }

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
