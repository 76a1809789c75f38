package constellation

import (
	"testing"

	"leosim/internal/geo"
)

func TestShellGeometryHelpers(t *testing.T) {
	sh := StarlinkPhase1()
	if r := sh.CoverageRadiusKm(); r < 900 || r > 980 {
		t.Errorf("coverage radius = %v", r)
	}
	if g := sh.MaxGSLKm(); g < 1000 || g > 1200 {
		t.Errorf("max GSL = %v", g)
	}
	// Both consistent with geo-level primitives.
	if sh.CoverageRadiusKm() != geo.CoverageRadius(sh.AltitudeKm, sh.MinElevationDeg) {
		t.Errorf("CoverageRadiusKm disagrees with geo.CoverageRadius")
	}
}
