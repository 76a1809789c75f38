// Package itur ports the ITU-R recommendation formulas the paper drives
// through the ITU-Rpy library [12] to model atmospheric attenuation on
// slant paths: rain (P.618/P.838/P.839), clouds (P.840), gases (P.676) and
// tropospheric scintillation (P.618 §2.4). Attenuation due to free-space
// path loss is deliberately not modeled, matching §6.
//
// Substitution note: the recommendations' proprietary digital climate maps
// (rain rate, columnar cloud water, wet refractivity) are replaced by a
// smooth synthetic climatology that reproduces the global pattern the
// experiments depend on — an ITCZ-peaked wet tropics, moderate mid-latitude
// storm tracks, and dry poles. The formula structure on top of the maps is
// the ITU one.
package itur

import "math"

// RainRate001 returns the synthetic rainfall rate R0.01 (mm/h exceeded 0.01%
// of an average year) at the given location. Peaks of ≈90 mm/h in the ITCZ
// band, a secondary mid-latitude ridge, and a gentle longitudinal modulation
// so paths crossing different regions differ.
func RainRate001(latDeg, lonDeg float64) float64 {
	itcz := 7.0 // mean ITCZ latitude
	tropics := 85 * math.Exp(-sq((latDeg-itcz)/13))
	midlat := 28 * math.Exp(-sq((math.Abs(latDeg)-42)/16))
	base := tropics + midlat + 6
	// Longitudinal texture (monsoon basins vs subsidence zones).
	mod := 1 + 0.18*math.Sin(lonDeg*math.Pi/90+latDeg*math.Pi/60)
	r := base * mod
	if r < 2 {
		r = 2
	}
	if r > 120 {
		r = 120
	}
	return r
}

// RainHeightKm returns the mean rain height above sea level (P.839-style
// latitude model: the 0 °C isotherm plus 0.36 km, flattened in the tropics).
func RainHeightKm(latDeg float64) float64 {
	a := math.Abs(latDeg)
	h := 5.0
	if a > 23 {
		h = 5.0 - 0.075*(a-23)
	}
	if h < 0.5 {
		h = 0.5
	}
	return h
}

// WaterVapourDensity returns the surface water-vapour density ρ in g/m³
// (tropics ≈ 22, mid-latitudes ≈ 8, poles ≈ 3).
func WaterVapourDensity(latDeg float64) float64 {
	return 19*math.Exp(-sq(latDeg/35)) + 3
}

// WetRefractivity returns N_wet, the wet term of the surface radio
// refractivity, used by the scintillation model (tropics ≈ 100, poles ≈ 20).
func WetRefractivity(latDeg float64) float64 {
	return 85*math.Exp(-sq(latDeg/40)) + 20
}

// ColumnarCloudWater returns the total columnar content of cloud liquid
// water L (kg/m²) exceeded p% of an average year (P.840-style). The 1%
// climatological value is scaled to other probabilities with a power law.
func ColumnarCloudWater(latDeg, lonDeg, p float64) float64 {
	l1 := 1.8*math.Exp(-sq(latDeg/45)) + 0.3
	l1 *= 1 + 0.15*math.Sin(lonDeg*math.Pi/120)
	if p <= 0 {
		p = 0.001
	}
	l := l1 * math.Pow(1/p, 0.45)
	if l > 6 {
		l = 6
	}
	return l
}

func sq(x float64) float64 { return x * x }
