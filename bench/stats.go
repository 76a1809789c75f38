package main

import "leosim/internal/stats"

func median(xs []float64) float64 { return stats.Summarize(xs).Median }

// timeCalls runs fn calls times on the calling goroutine and returns each
// call's duration in nanoseconds.
func timeCalls(calls int, fn func(i int)) []float64 {
	out := make([]float64, calls)
	for i := range out {
		t0 := nowNs()
		fn(i)
		out[i] = float64(nowNs() - t0)
	}
	return out
}

// timeBatches is timeCalls for operations too short for one clock read per
// call (tens of nanoseconds): each sample is the mean of per calls of fn.
func timeBatches(batches, per int, fn func(i int)) []float64 {
	out := make([]float64, batches)
	for b := range out {
		t0 := nowNs()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		out[b] = float64(nowNs()-t0) / float64(per)
	}
	return out
}

// scaled divides every sample by div (a unit conversion).
func scaled(xs []float64, div float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v / div
	}
	return out
}
