package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers 1µs → ~9m in powers of two, plus an underflow bucket
// (index 0, < 1µs) and an implicit overflow (the last bucket is unbounded
// above). Bucket i (i ≥ 1) holds durations in [2^(i-1)µs, 2^i µs).
const numBuckets = 31

// bucketUpperNs returns the exclusive upper bound of bucket i in
// nanoseconds; the last bucket has no upper bound.
func bucketUpperNs(i int) int64 {
	return int64(1000) << uint(i)
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// Observe: per-bucket atomic counters on a power-of-two microsecond grid.
// Quantiles are estimated by linear interpolation inside the bucket holding
// the target rank, so an estimate is always within one bucket (a factor of
// two) of the exact sample quantile.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
}

// Observe records one duration. Allocation-free; a handful of atomic adds.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// bits.Len64 of the duration in µs is the index of the first bucket
	// whose upper bound exceeds it: sub-µs → 0, [1µs,2µs) → 1, ...
	idx := bits.Len64(uint64(ns / 1000))
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		old := h.maxNs.Load()
		if ns <= old || h.maxNs.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-th (0..1) sample quantile in nanoseconds.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := int64(q*float64(total-1)) + 1 // rank in [1, total]
	cum := int64(0)
	for i := 0; i < numBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo := float64(0)
			if i > 0 {
				lo = float64(bucketUpperNs(i - 1))
			}
			hi := float64(bucketUpperNs(i))
			if i == numBuckets-1 {
				// Unbounded overflow bucket: clamp to the observed max.
				hi = float64(h.maxNs.Load())
				if hi < lo {
					hi = lo
				}
			}
			frac := (float64(target-cum) - 0.5) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return float64(h.maxNs.Load())
}

// HistogramSnapshot is a point-in-time, JSON-ready summary of a Histogram.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MaxMs  float64 `json:"maxMs"`
}

// Snapshot summarizes the histogram. Concurrent Observes may land between
// field reads; the snapshot is a monitoring view, not a consistent cut.
func (h *Histogram) Snapshot() HistogramSnapshot {
	n := h.Count()
	s := HistogramSnapshot{Count: n}
	if n == 0 {
		return s
	}
	s.MeanMs = float64(h.sumNs.Load()) / float64(n) / 1e6
	s.P50Ms = h.Quantile(0.50) / 1e6
	s.P90Ms = h.Quantile(0.90) / 1e6
	s.P99Ms = h.Quantile(0.99) / 1e6
	s.MaxMs = float64(h.maxNs.Load()) / 1e6
	return s
}
