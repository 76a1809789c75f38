package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"leosim/internal/fault"
	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/stats"
	"leosim/internal/telemetry"
)

// resilienceMaxSnapshots caps how many snapshots each sweep point evaluates:
// enough to average over constellation motion without multiplying the sweep
// cost by the full day.
const resilienceMaxSnapshots = 4

// resilienceK is the multipath degree of the throughput model (§5's k=4).
const resilienceK = 4

// DefaultFaultFractions is the 0–30% failure sweep the resilience
// experiment runs by default.
func DefaultFaultFractions() []float64 {
	return []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
}

// ResiliencePoint is one cell of the sweep: one failure fraction under one
// connectivity mode.
type ResiliencePoint struct {
	Fraction float64 `json:"fraction"`
	Mode     Mode    `json:"mode"`
	// FailedSats/FailedSites/FailedISLs count the concrete outages the
	// seeded plan realized at this fraction (lasers: at the first snapshot).
	FailedSats  int `json:"failedSats"`
	FailedSites int `json:"failedSites"`
	FailedISLs  int `json:"failedIsls"`
	// MedianRTTMs and P99RTTMs summarize per-pair best RTTs over the
	// evaluated snapshots (reachable pairs only; +Inf when there are none).
	MedianRTTMs Float `json:"medianRttMs"`
	P99RTTMs    Float `json:"p99RttMs"`
	// MedianInflationPct and P99InflationPct are the percentage increases
	// over this mode's 0%-failure baseline.
	MedianInflationPct Float `json:"medianInflationPct"`
	P99InflationPct    Float `json:"p99InflationPct"`
	// UnreachableFrac is the fraction of sampled pairs with no path in any
	// evaluated snapshot.
	UnreachableFrac float64 `json:"unreachableFrac"`
	// ThroughputGbps is the max-min aggregate at the first snapshot;
	// ThroughputRetention is its ratio to the mode's healthy baseline.
	ThroughputGbps      float64 `json:"throughputGbps"`
	ThroughputRetention float64 `json:"throughputRetention"`
}

// ResilienceResult is the fault-injection sweep output: how BP and Hybrid
// connectivity degrade as a growing fraction of a resource fails.
type ResilienceResult struct {
	Scenario  fault.Scenario `json:"scenario"`
	Seed      int64          `json:"seed"`
	Fractions []float64      `json:"fractions"`
	// SnapshotsUsed is how many snapshots each point averaged over.
	SnapshotsUsed int `json:"snapshotsUsed"`
	// Partial marks a sweep cut short by cancellation: Points holds the
	// completed fractions only.
	Partial bool `json:"partial,omitempty"`
	// Points is fraction-major, BP before Hybrid within each fraction.
	Points []ResiliencePoint `json:"points"`
}

// resilienceSeed derives the outage seed for sweep point i so each fraction
// draws an independent (but reproducible) failure set.
func resilienceSeed(base int64, i int) int64 {
	return base*1_000_003 + int64(i)
}

// modeEval holds one mode's aggregate metrics at one sweep point.
type modeEval struct {
	Median      Float   `json:"median"`
	P99         Float   `json:"p99"`
	Unreachable float64 `json:"unreachable"`
	Tput        float64 `json:"tput"`
}

// resilienceStep is one unit of the sweep: the healthy baseline (unit 0) or
// one completed fraction's two points (BP, Hybrid).
type resilienceStep struct {
	Baseline map[Mode]modeEval `json:"baseline,omitempty"`
	Points   []ResiliencePoint `json:"points,omitempty"`
}

// RunResilience sweeps a failure scenario over the given fractions (nil =
// DefaultFaultFractions) and reports, per fraction and mode, latency
// inflation, unreachable-pair fraction and throughput retention relative to
// the healthy baseline. The baseline itself is evaluated through the same
// path with no outages, and a zero plan masks nothing, so the 0% row is
// identical to an unfaulted run by construction. Outages persist across the
// evaluated snapshots; only failed lasers are drawn per snapshot, from the
// links that exist then (the same draw every time for a static topology).
// Draws are seeded from the sim's scale seed: the same sim and scenario
// always produce the same sweep, byte for byte.
//
// Cancelling ctx stops the sweep at the next fraction boundary; completed
// fractions are returned with Partial set, alongside ctx.Err().
func RunResilience(ctx context.Context, s *Sim, scenario fault.Scenario, fractions []float64) (res *ResilienceResult, err error) {
	defer safe.RecoverTo(&err)
	if !scenario.Valid() {
		return nil, fmt.Errorf("core: unknown fault scenario %q (want one of %v)",
			scenario, fault.Scenarios())
	}
	if fractions == nil {
		fractions = DefaultFaultFractions()
	}
	if len(fractions) == 0 {
		return nil, fmt.Errorf("core: no failure fractions to sweep")
	}
	times := s.SnapshotTimes()
	if len(times) == 0 {
		return nil, fmt.Errorf("core: no snapshots to simulate (NumSnapshots = %d)",
			s.Scale.NumSnapshots)
	}
	if len(times) > resilienceMaxSnapshots {
		times = times[:resilienceMaxSnapshots]
	}

	res = &ResilienceResult{
		Scenario:      scenario,
		Seed:          s.Scale.Seed,
		SnapshotsUsed: len(times),
	}

	// Unit 0 is the healthy baseline, evaluated through the identical code
	// path (zero plan); unit i ≥ 1 is fraction i-1, both modes, so Points
	// only ever grows by whole fractions.
	var baseline map[Mode]modeEval
	done, err := runSteps(ctx, "resilience/"+string(scenario), 1+len(fractions),
		func(i int) (resilienceStep, error) {
			perSnap := make([]*fault.Outages, len(times))
			if i == 0 {
				base := map[Mode]modeEval{}
				for _, mode := range []Mode{BP, Hybrid} {
					ev, err := s.evalFaulted(ctx, mode, perSnap, times)
					if err != nil {
						return resilienceStep{}, err
					}
					base[mode] = ev
				}
				return resilienceStep{Baseline: base}, nil
			}
			frac := fractions[i-1]
			plan, err := fault.ForScenario(scenario, frac, resilienceSeed(s.Scale.Seed, i-1))
			if err != nil {
				return resilienceStep{}, err
			}
			fsp := telemetry.RecordSpan(ctx, telemetry.StageFaultRealize)
			for si, t := range times {
				if perSnap[si], err = plan.RealizeAt(s.Const, len(s.Seg.Terminals), t); err != nil {
					break
				}
			}
			fsp.End()
			if err != nil {
				return resilienceStep{}, err
			}
			outages := perSnap[0]
			progressf("resilience %s %.0f%%: %d sats, %d sites, %d lasers down\n",
				scenario, frac*100, outages.NumFailedSats(), outages.NumFailedSites(),
				outages.NumFailedISLs())
			var st resilienceStep
			for _, mode := range []Mode{BP, Hybrid} {
				ev, err := s.evalFaulted(ctx, mode, perSnap, times)
				if err != nil {
					return resilienceStep{}, err
				}
				base := baseline[mode]
				st.Points = append(st.Points, ResiliencePoint{
					Fraction:            frac,
					Mode:                mode,
					FailedSats:          outages.NumFailedSats(),
					FailedSites:         outages.NumFailedSites(),
					FailedISLs:          outages.NumFailedISLs(),
					MedianRTTMs:         ev.Median,
					P99RTTMs:            ev.P99,
					MedianInflationPct:  Float(pctIncrease(float64(base.Median), float64(ev.Median))),
					P99InflationPct:     Float(pctIncrease(float64(base.P99), float64(ev.P99))),
					UnreachableFrac:     ev.Unreachable,
					ThroughputGbps:      ev.Tput,
					ThroughputRetention: retention(ev.Tput, base.Tput),
				})
			}
			return st, nil
		},
		func(i int, st resilienceStep) error {
			if i == 0 {
				if len(st.Baseline) != 2 {
					return fmt.Errorf("core: journal resilience sweep is missing its baseline step")
				}
				baseline = st.Baseline
				return nil
			}
			if len(st.Points) != 2 || st.Points[0].Fraction != fractions[i-1] {
				return fmt.Errorf("core: journal resilience step is not fraction %g — journal from a different sweep?",
					fractions[i-1])
			}
			res.Points = append(res.Points, st.Points...)
			res.Fractions = append(res.Fractions, fractions[i-1])
			return nil
		})
	if err != nil {
		return nil, err
	}
	if res.Partial = done < 1+len(fractions); res.Partial {
		if len(res.Fractions) == 0 {
			return nil, ctx.Err()
		}
		return res, ctx.Err()
	}
	return res, nil
}

func retention(val, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return val / base
}

// evalFaulted evaluates one mode under each snapshot's outage set (nil =
// healthy): it measures per-pair best RTTs and reachability across the
// snapshots on views of the cached healthy networks (each with its outages'
// cut), and runs the §5 throughput model at the first one — the one place
// the mask is materialized, since the model reads the masked capacities.
func (s *Sim) evalFaulted(ctx context.Context, mode Mode, perSnap []*fault.Outages, times []time.Time) (modeEval, error) {
	best := fill(len(s.Pairs), math.Inf(1))
	var ev modeEval
	for si, t := range times {
		healthy := s.NetworkAtCtx(ctx, t, mode)
		if si == 0 {
			tp, err := throughputOn(ctx, s, perSnap[si].Masked(healthy), resilienceK)
			if err != nil {
				return ev, err
			}
			ev.Tput = tp.AggregateGbps
		}
		rtts, err := pairRTTs(ctx, graph.View{N: healthy, Cut: perSnap[si].Cut(healthy)}, s.Pairs, nil)
		if err != nil {
			return ev, err
		}
		for i, r := range rtts {
			if r < best[i] {
				best[i] = r
			}
		}
	}
	var reachable []float64
	for _, r := range best {
		if math.IsInf(r, 1) {
			continue
		}
		reachable = append(reachable, r)
	}
	ev.Unreachable = 1 - float64(len(reachable))/float64(len(best))
	ev.Median, ev.P99 = Float(math.Inf(1)), Float(math.Inf(1))
	if len(reachable) > 0 {
		ev.Median = Float(stats.Percentile(reachable, 50))
		ev.P99 = Float(stats.Percentile(reachable, 99))
	}
	return ev, nil
}

// PointAt fetches the row of one fraction and mode (a helper for reports and
// tests); ok is false if the row is absent.
func (r *ResilienceResult) PointAt(frac float64, mode Mode) (ResiliencePoint, bool) {
	for _, p := range r.Points {
		if p.Fraction == frac && p.Mode == mode {
			return p, true
		}
	}
	return ResiliencePoint{}, false
}

// WriteResilienceReport renders the BP-vs-Hybrid degradation table.
func WriteResilienceReport(w io.Writer, r *ResilienceResult) {
	fmt.Fprintf(w, "resilience scenario=%s seed=%d snapshots=%d\n",
		r.Scenario, r.Seed, r.SnapshotsUsed)
	if r.Partial {
		fmt.Fprintf(w, "resilience PARTIAL: %d of requested fractions completed\n", len(r.Fractions))
	}
	fmt.Fprintf(w, "resilience  frac  mode    medRTT    p99RTT   med-infl   p99-infl  unreach  tput-Gbps  retention\n")
	for _, p := range r.Points {
		fmt.Fprintf(w, "resilience %4.0f%%  %-6s %7.1fms %8.1fms %+9.1f%% %+9.1f%%  %6.1f%%  %9.1f  %8.0f%%\n",
			p.Fraction*100, p.Mode, p.MedianRTTMs, p.P99RTTMs,
			p.MedianInflationPct, p.P99InflationPct, p.UnreachableFrac*100,
			p.ThroughputGbps, p.ThroughputRetention*100)
	}
}
