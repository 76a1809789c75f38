// Package stats provides the small statistical toolkit the experiments use:
// percentiles, empirical CDF series, and summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics. It returns NaN for an empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	f := rank - float64(lo)
	return s[lo]*(1-f) + s[hi]*f
}

// Summary holds the summary statistics the experiment reports print.
type Summary struct {
	N                   int
	Min, Max, Mean      float64
	P25, Median, P75    float64
	P90, P95, P99, P995 float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary
// with N == 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
		P25:    percentileSorted(s, 25),
		Median: percentileSorted(s, 50),
		P75:    percentileSorted(s, 75),
		P90:    percentileSorted(s, 90),
		P95:    percentileSorted(s, 95),
		P99:    percentileSorted(s, 99),
		P995:   percentileSorted(s, 99.5),
	}
}

// String implements fmt.Stringer with a compact one-line rendering.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f p50=%.2f mean=%.2f p95=%.2f max=%.2f",
		s.N, s.Min, s.Median, s.Mean, s.P95, s.Max)
}

// CDFPoint is one point of an empirical distribution series.
type CDFPoint struct {
	X float64 // value
	F float64 // cumulative fraction ≤ X
}

// CDF returns the empirical CDF of xs as a sorted point series, one point
// per sample (suitable for plotting the paper's Fig 2/6-style curves).
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, len(s))
	for i, x := range s {
		out[i] = CDFPoint{X: x, F: float64(i+1) / float64(len(s))}
	}
	return out
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
