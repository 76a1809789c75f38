package core

import (
	"context"
	"fmt"
	"math"

	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/stats"
)

// LatencyResult holds the Fig 2 experiment output: per-pair minimum RTT and
// RTT range (max − min across snapshots) for both connectivity modes.
type LatencyResult struct {
	// MinRTT[mode][i] is the minimum RTT (ms) of pair i across snapshots.
	MinRTT map[Mode][]float64 `json:"minRttMs"`
	// RangeRTT[mode][i] is max−min RTT (ms) of pair i across snapshots.
	RangeRTT map[Mode][]float64 `json:"rangeRttMs"`
	// ReachablePairs counts pairs reachable in every snapshot under both
	// modes (the population the CDFs are over); Excluded counts the rest.
	ReachablePairs int `json:"reachablePairs"`
	Excluded       int `json:"excludedPairs"`
	// SnapshotsDone counts snapshots fully aggregated; Partial marks a
	// result cut short by cancellation (SnapshotsDone < requested).
	SnapshotsDone int  `json:"snapshotsDone"`
	Partial       bool `json:"partial,omitempty"`
}

// RunLatency runs the §4 experiment: simulate the day, find shortest paths
// for every pair at every snapshot under BP-only and hybrid connectivity,
// and report minimum RTTs (Fig 2a) and RTT variation (Fig 2b).
//
// Cancelling ctx stops the run at the next snapshot boundary. If at least
// one snapshot completed, the result over the completed snapshots is
// returned with Partial set, alongside ctx.Err(); with none completed only
// the error is returned.
func RunLatency(ctx context.Context, s *Sim) (res *LatencyResult, err error) {
	defer safe.RecoverTo(&err)
	times := s.SnapshotTimes()
	nPairs := len(s.Pairs)

	minRTT := map[Mode][]float64{}
	maxRTT := map[Mode][]float64{}
	for _, m := range []Mode{BP, Hybrid} {
		minRTT[m] = fill(nPairs, math.Inf(1))
		maxRTT[m] = fill(nPairs, math.Inf(-1))
	}
	ok := make([]bool, nPairs)
	for i := range ok {
		ok[i] = true
	}

	// A snapshot is one unit: both modes' per-pair RTTs (+Inf = unreachable)
	// are computed before either is aggregated, so a cancellation
	// mid-snapshot never leaves one mode's extremes a snapshot ahead of the
	// other's.
	done, err := runSteps(ctx, "latency", len(times),
		func(i int) (map[Mode][]Float, error) {
			// Under a running trace capture each snapshot gets its own trace
			// ID: the exported Chrome trace shows one track per snapshot, its
			// search fan-out spans nested inside the envelope.
			sctx, endSnap := traceSnapshot(ctx, i)
			defer endSnap()
			snap := map[Mode][]Float{}
			for _, m := range []Mode{BP, Hybrid} {
				rtts, err := pairRTTs(sctx, graph.View{N: s.NetworkAtCtx(sctx, times[i], m)}, s.Pairs, nil)
				if err != nil {
					return nil, err
				}
				snap[m] = make([]Float, len(rtts))
				for pi, r := range rtts {
					snap[m][pi] = Float(r)
				}
			}
			return snap, nil
		},
		func(_ int, snap map[Mode][]Float) error {
			if len(snap[BP]) != nPairs || len(snap[Hybrid]) != nPairs {
				return fmt.Errorf("core: journal latency step has %d/%d pairs, sim has %d — journal from a different run?",
					len(snap[BP]), len(snap[Hybrid]), nPairs)
			}
			for _, m := range []Mode{BP, Hybrid} {
				for i, r := range snap[m] {
					r := float64(r)
					if math.IsInf(r, 1) {
						ok[i] = false
						continue
					}
					if r < minRTT[m][i] {
						minRTT[m][i] = r
					}
					if r > maxRTT[m][i] {
						maxRTT[m][i] = r
					}
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if done == 0 {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("core: no snapshots to simulate")
	}

	res = &LatencyResult{
		MinRTT:        map[Mode][]float64{BP: nil, Hybrid: nil},
		RangeRTT:      map[Mode][]float64{BP: nil, Hybrid: nil},
		SnapshotsDone: done,
		Partial:       done < len(times),
	}
	for i := 0; i < nPairs; i++ {
		if !ok[i] {
			res.Excluded++
			continue
		}
		res.ReachablePairs++
		for _, m := range []Mode{BP, Hybrid} {
			res.MinRTT[m] = append(res.MinRTT[m], minRTT[m][i])
			res.RangeRTT[m] = append(res.RangeRTT[m], maxRTT[m][i]-minRTT[m][i])
		}
	}
	if res.ReachablePairs == 0 {
		return nil, fmt.Errorf("core: no pair reachable in every snapshot; scale too small?")
	}
	if res.Partial {
		return res, ctx.Err()
	}
	return res, nil
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// Headline computes the paper's headline latency-variation claims: the
// percentage increase of RTT variation when eschewing ISLs, at the median
// and 95th percentile across pairs (§1: +80% and +422%).
func (r *LatencyResult) Headline() (medianIncreasePct, p95IncreasePct float64) {
	bp := stats.Summarize(r.RangeRTT[BP])
	hy := stats.Summarize(r.RangeRTT[Hybrid])
	medianIncreasePct = pctIncrease(hy.Median, bp.Median)
	p95IncreasePct = pctIncrease(hy.P95, bp.P95)
	return
}

func pctIncrease(base, val float64) float64 {
	if base <= 0 {
		if val <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (val - base) / base * 100
}

// MaxMinRTTGapMs returns the largest per-pair difference between BP and
// hybrid minimum RTTs (the paper reports a 57 ms tail gap in Fig 2a).
func (r *LatencyResult) MaxMinRTTGapMs() float64 {
	gap := 0.0
	for i := range r.MinRTT[BP] {
		if d := r.MinRTT[BP][i] - r.MinRTT[Hybrid][i]; d > gap {
			gap = d
		}
	}
	return gap
}

// Summaries returns per-mode summaries of minimum RTT and RTT range.
func (r *LatencyResult) Summaries() (minBP, minHy, rngBP, rngHy stats.Summary) {
	return stats.Summarize(r.MinRTT[BP]), stats.Summarize(r.MinRTT[Hybrid]),
		stats.Summarize(r.RangeRTT[BP]), stats.Summarize(r.RangeRTT[Hybrid])
}
