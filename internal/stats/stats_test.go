package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{0, 10}, 25); got != 2.5 {
		t.Errorf("interpolated P25 = %v, want 2.5", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Errorf("empty percentile should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 0, 1000)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		xs = append(xs, rng.Float64()*100)
	}
	s := Summarize(xs)
	if s.N != 1000 {
		t.Errorf("N = %d", s.N)
	}
	if s.Min > s.P25 || s.P25 > s.Median || s.Median > s.P75 ||
		s.P75 > s.P90 || s.P90 > s.P95 || s.P95 > s.P99 ||
		s.P99 > s.P995 || s.P995 > s.Max {
		t.Errorf("summary order statistics not monotone: %+v", s)
	}
	if s.Mean < 45 || s.Mean > 55 {
		t.Errorf("uniform mean = %v", s.Mean)
	}
	if Summarize(nil).N != 0 {
		t.Errorf("empty summary should have N=0")
	}
	if Summarize(xs).String() == "" {
		t.Errorf("String should render")
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{3, 1, 2}
	cdf := CDF(xs)
	if len(cdf) != 3 {
		t.Fatalf("len = %d", len(cdf))
	}
	if cdf[0].X != 1 || cdf[2].X != 3 {
		t.Errorf("CDF not sorted: %+v", cdf)
	}
	if cdf[2].F != 1 {
		t.Errorf("CDF must end at 1, got %v", cdf[2].F)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].F <= cdf[i-1].F {
			t.Errorf("CDF fractions not increasing")
		}
	}
	if CDF(nil) != nil {
		t.Errorf("empty CDF should be nil")
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Errorf("empty mean should be NaN")
	}
}

// Percentile at p must sit between min and max, and P50 of a sorted
// symmetric set equals the median.
func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		for _, p := range []float64{0, 10, 50, 90, 99.5, 100} {
			v := Percentile(xs, p)
			if v < s[0] || v > s[len(s)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
