package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"leosim/internal/safe"
	"leosim/internal/stats"
	"leosim/internal/telemetry"
)

// LatencyResult holds the Fig 2 experiment output: per-pair minimum RTT and
// RTT range (max − min across snapshots) for both connectivity modes.
type LatencyResult struct {
	// MinRTT[mode][i] is the minimum RTT (ms) of pair i across snapshots.
	MinRTT map[Mode][]float64
	// RangeRTT[mode][i] is max−min RTT (ms) of pair i across snapshots.
	RangeRTT map[Mode][]float64
	// ReachablePairs counts pairs reachable in every snapshot under both
	// modes (the population the CDFs are over); Excluded counts the rest.
	ReachablePairs, Excluded int
	// SnapshotsDone counts snapshots fully aggregated; Partial marks a
	// result cut short by cancellation (SnapshotsDone < requested).
	SnapshotsDone int
	Partial       bool
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

	prog := telemetry.NewProgress(Progress, "latency", len(times))
	defer prog.Finish()
	done := 0
	aggregate := func(snap map[Mode][]float64) {
		for _, m := range []Mode{BP, Hybrid} {
			for i, r := range snap[m] {
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
		done++
		prog.Step(1)
	}
	// A journaled run replays the snapshots a previous (crashed or killed)
	// run already completed, then computes only the remainder. Replayed
	// aggregation is identical to live aggregation: journal floats
	// round-trip exactly.
	jour := JournalFrom(ctx)
	if jour != nil {
		for _, raw := range jour.Steps("latency") {
			snap, jerr := latencySnapFromJournal(raw, nPairs)
			if jerr != nil {
				return nil, jerr
			}
			aggregate(snap)
			if done == len(times) {
				break
			}
		}
		if done > 0 {
			telemetry.EmitEvent(ctx, telemetry.CatJournal, telemetry.SevInfo,
				"journal replay: snapshots restored from previous run",
				telemetry.Str("experiment", "latency"),
				telemetry.Int64("snapshots", int64(done)))
		}
	}
	for _, t := range times[done:] {
		if ctx.Err() != nil {
			break
		}
		// Under a running trace capture each snapshot gets its own trace ID:
		// the exported Chrome trace shows one track per snapshot, its search
		// fan-out spans nested inside the envelope.
		sctx, endSnap := traceSnapshot(ctx, done)
		// Compute both modes for this snapshot before aggregating, so a
		// cancellation mid-snapshot never leaves one mode's extremes a
		// snapshot ahead of the other's.
		snap := map[Mode][]float64{}
		for _, m := range []Mode{BP, Hybrid} {
			rtts, rerr := s.pairRTTs(sctx, s.NetworkAtCtx(sctx, t, m), false)
			if rerr != nil {
				if ctx.Err() != nil && done > 0 {
					snap = nil
					break
				}
				return nil, rerr
			}
			snap[m] = rtts
		}
		endSnap()
		if snap == nil {
			break
		}
		if jour != nil {
			if jerr := jour.Step("latency", latencySnapToJournal(snap)); jerr != nil {
				return nil, jerr
			}
		}
		aggregate(snap)
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

// latencyJournalStep is one journaled snapshot of the latency sweep: both
// modes' per-pair RTTs, with nil standing in for +Inf (unreachable).
type latencyJournalStep struct {
	BP     []*float64 `json:"bp"`
	Hybrid []*float64 `json:"hybrid"`
}

func latencySnapToJournal(snap map[Mode][]float64) latencyJournalStep {
	conv := func(rtts []float64) []*float64 {
		out := make([]*float64, len(rtts))
		for i, r := range rtts {
			out[i] = finiteOrNil(r)
		}
		return out
	}
	return latencyJournalStep{BP: conv(snap[BP]), Hybrid: conv(snap[Hybrid])}
}

func latencySnapFromJournal(raw json.RawMessage, nPairs int) (map[Mode][]float64, error) {
	var st latencyJournalStep
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("core: journal latency step: %w", err)
	}
	if len(st.BP) != nPairs || len(st.Hybrid) != nPairs {
		return nil, fmt.Errorf("core: journal latency step has %d/%d pairs, sim has %d — journal from a different run?",
			len(st.BP), len(st.Hybrid), nPairs)
	}
	conv := func(rtts []*float64) []float64 {
		out := make([]float64, len(rtts))
		for i, r := range rtts {
			out[i] = infOrVal(r)
		}
		return out
	}
	return map[Mode][]float64{BP: conv(st.BP), Hybrid: conv(st.Hybrid)}, nil
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
