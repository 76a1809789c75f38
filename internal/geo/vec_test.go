package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecAddSub(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{-4, 5, 0.5}
	got := v.Add(w)
	want := Vec3{-3, 7, 3.5}
	if got != want {
		t.Fatalf("Add = %v, want %v", got, want)
	}
	if v.Add(w).Sub(w) != v {
		t.Fatalf("Add then Sub should round-trip")
	}
}

func TestVecDotCross(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	z := Vec3{0, 0, 1}
	if x.Dot(y) != 0 {
		t.Errorf("x·y = %v, want 0", x.Dot(y))
	}
	if x.Cross(y) != z {
		t.Errorf("x×y = %v, want %v", x.Cross(y), z)
	}
	if y.Cross(x) != z.Scale(-1) {
		t.Errorf("y×x = %v, want %v", y.Cross(x), z.Scale(-1))
	}
}

func TestVecNormUnit(t *testing.T) {
	v := Vec3{3, 4, 0}
	if v.Norm() != 5 {
		t.Fatalf("Norm = %v, want 5", v.Norm())
	}
	u := v.Unit()
	if !almostEq(u.Norm(), 1, 1e-12) {
		t.Fatalf("Unit norm = %v, want 1", u.Norm())
	}
	if got := (Vec3{}).Unit(); got != (Vec3{}) {
		t.Fatalf("Unit of zero = %v, want zero", got)
	}
}

func TestVecAngleTo(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 2, 0}
	if a := x.AngleTo(y); !almostEq(a, math.Pi/2, 1e-12) {
		t.Errorf("angle = %v, want π/2", a)
	}
	if a := x.AngleTo(x.Scale(3)); !almostEq(a, 0, 1e-7) {
		t.Errorf("angle to self = %v, want 0", a)
	}
	if a := x.AngleTo(x.Scale(-1)); !almostEq(a, math.Pi, 1e-7) {
		t.Errorf("angle to -self = %v, want π", a)
	}
}

func TestVecDistance(t *testing.T) {
	a := Vec3{0, 0, 0}
	b := Vec3{1, 2, 2}
	if d := a.Distance(b); d != 3 {
		t.Fatalf("Distance = %v, want 3", d)
	}
}

// Property: the cross product is orthogonal to both operands.
func TestVecCrossOrthogonalProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{sanitize(ax), sanitize(ay), sanitize(az)}
		b := Vec3{sanitize(bx), sanitize(by), sanitize(bz)}
		c := a.Cross(b)
		tol := 1e-6 * (1 + a.Norm()*b.Norm())
		return math.Abs(c.Dot(a)) <= tol && math.Abs(c.Dot(b)) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: |a+b| <= |a| + |b| (triangle inequality).
func TestVecTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{sanitize(ax), sanitize(ay), sanitize(az)}
		b := Vec3{sanitize(bx), sanitize(by), sanitize(bz)}
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sanitize maps arbitrary quick-generated floats onto a bounded, finite
// range so geometric identities hold within floating-point tolerance.
func sanitize(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}
