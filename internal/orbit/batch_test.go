package orbit

import (
	"math"
	"testing"
	"time"

	"leosim/internal/geo"
)

// TestKeplerBatchBitIdentical: the batch path must reproduce the scalar
// PositionECI→ECIToECEF pipeline bit for bit (up to the sign of exact
// zeros), across circular and eccentric orbits, J2 on and off, and plane
// groupings that exercise the matrix-reuse path.
func TestKeplerBatchBitIdentical(t *testing.T) {
	epoch := geo.Epoch
	var props []Propagator
	for plane := 0; plane < 6; plane++ {
		for slot := 0; slot < 8; slot++ {
			el := Circular(550, 53, float64(plane)*60, float64(slot)*45, epoch)
			props = append(props, NewKepler(el))
		}
	}
	// Eccentric and non-secular stragglers break the plane runs.
	ecc := Elements{SemiMajorKm: 7000, Eccentricity: 0.02, InclinationRad: 1.1,
		RAANRad: 0.4, ArgPerigeeRad: 0.7, MeanAnomalyRad: 2.2, Epoch: epoch}
	props = append(props, NewKepler(ecc))
	props = append(props, &KeplerPropagator{El: Circular(1200, 80, 10, 20, epoch)})

	b, ok := NewKeplerBatch(props)
	if !ok {
		t.Fatal("all-Kepler fleet should batch")
	}
	dst := make([]geo.Vec3, len(props))
	for _, dt := range []time.Duration{0, time.Second, time.Minute, 7 * time.Hour, 100 * 24 * time.Hour} {
		tt := epoch.Add(dt)
		b.PositionsECEFRange(tt, 0, len(props), dst)
		for i, p := range props {
			want := geo.ECIToECEF(p.PositionECI(tt), tt)
			got := dst[i]
			if !bitEqual(got.X, want.X) || !bitEqual(got.Y, want.Y) || !bitEqual(got.Z, want.Z) {
				t.Fatalf("sat %d at +%v: batch %v != scalar %v", i, dt, got, want)
			}
		}
	}
}

// bitEqual treats +0 and −0 as equal (the batch drops products with the
// perifocal zero Z component, which can only flip an exact zero's sign) and
// requires exact bits otherwise.
func bitEqual(a, b float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestKeplerBatchRange: chunked evaluation (as the parallel position fan-out
// uses) must agree with whole-fleet evaluation.
func TestKeplerBatchRange(t *testing.T) {
	epoch := geo.Epoch
	var props []Propagator
	for plane := 0; plane < 4; plane++ {
		for slot := 0; slot < 5; slot++ {
			props = append(props, NewKepler(Circular(600, 70, float64(plane)*90, float64(slot)*72, epoch)))
		}
	}
	b, _ := NewKeplerBatch(props)
	tt := epoch.Add(90 * time.Minute)
	whole := make([]geo.Vec3, len(props))
	b.PositionsECEFRange(tt, 0, len(props), whole)
	chunked := make([]geo.Vec3, len(props))
	for lo := 0; lo < len(props); lo += 7 {
		hi := lo + 7
		if hi > len(props) {
			hi = len(props)
		}
		b.PositionsECEFRange(tt, lo, hi, chunked)
	}
	for i := range whole {
		if whole[i] != chunked[i] {
			t.Fatalf("sat %d: chunked %v != whole %v", i, chunked[i], whole[i])
		}
	}
}

// TestKeplerBatchRejectsSGP4: mixed fleets fall back to the scalar path.
func TestKeplerBatchRejectsSGP4(t *testing.T) {
	el := Circular(550, 53, 0, 0, geo.Epoch)
	s, err := NewSGP4(TLE{SatNum: 1, Epoch: geo.Epoch, InclinationDeg: 53,
		Eccentricity: 0.0001, MeanMotion: 15.05})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := NewKeplerBatch([]Propagator{NewKepler(el), s}); ok {
		t.Fatal("SGP4 fleet must not batch")
	}
}
