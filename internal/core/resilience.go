package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"leosim/internal/fault"
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
	Fraction float64
	Mode     Mode
	// FailedSats/FailedSites/FailedISLs count the concrete outages the
	// seeded plan realized at this fraction (lasers: at the first snapshot).
	FailedSats, FailedSites, FailedISLs int
	// MedianRTTMs and P99RTTMs summarize per-pair best RTTs over the
	// evaluated snapshots (reachable pairs only).
	MedianRTTMs, P99RTTMs float64
	// MedianInflationPct and P99InflationPct are the percentage increases
	// over this mode's 0%-failure baseline.
	MedianInflationPct, P99InflationPct float64
	// UnreachableFrac is the fraction of sampled pairs with no path in any
	// evaluated snapshot.
	UnreachableFrac float64
	// ThroughputGbps is the max-min aggregate at the first snapshot;
	// ThroughputRetention is its ratio to the mode's healthy baseline.
	ThroughputGbps, ThroughputRetention float64
}

// ResilienceResult is the fault-injection sweep output: how BP and Hybrid
// connectivity degrade as a growing fraction of a resource fails.
type ResilienceResult struct {
	Scenario  fault.Scenario
	Seed      int64
	Fractions []float64
	// Points is fraction-major, BP before Hybrid within each fraction.
	Points []ResiliencePoint
	// SnapshotsUsed is how many snapshots each point averaged over.
	SnapshotsUsed int
	// Partial marks a sweep cut short by cancellation: Points holds the
	// completed fractions only.
	Partial bool
}

// resilienceSeed derives the outage seed for sweep point i so each fraction
// draws an independent (but reproducible) failure set.
func resilienceSeed(base int64, i int) int64 {
	return base*1_000_003 + int64(i)
}

// modeEval holds one mode's aggregate metrics at one sweep point.
type modeEval struct {
	median, p99, unreachable, tput float64
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

	// A journaled run replays the baseline and completed fractions from a
	// previous (crashed or killed) run. Only whole fractions are journaled,
	// mirroring the live invariant that Points never holds half a fraction.
	jour := JournalFrom(ctx)
	jkey := "resilience/" + string(scenario)
	var steps []json.RawMessage
	if jour != nil {
		steps = jour.Steps(jkey)
		if len(steps) > 0 {
			telemetry.EmitEvent(ctx, telemetry.CatJournal, telemetry.SevInfo,
				"journal replay: steps restored from previous run",
				telemetry.Str("experiment", jkey),
				telemetry.Int64("steps", int64(len(steps))))
		}
	}

	// Healthy baseline through the identical code path (zero plan).
	baseline := map[Mode]modeEval{}
	if len(steps) > 0 {
		b, jerr := resilienceBaselineFromJournal(steps[0])
		if jerr != nil {
			return nil, jerr
		}
		baseline = b
		steps = steps[1:]
	} else {
		for _, mode := range []Mode{BP, Hybrid} {
			ev, err := s.evalFaulted(ctx, mode, make([]*fault.Outages, len(times)), times)
			if err != nil {
				return nil, err
			}
			baseline[mode] = *ev
		}
		if jour != nil {
			if jerr := jour.Step(jkey, resilienceBaselineToJournal(baseline)); jerr != nil {
				return nil, jerr
			}
		}
	}

	prog := telemetry.NewProgress(Progress, "resilience", len(fractions))
	defer prog.Finish()
	start := 0
	for _, raw := range steps {
		if start >= len(fractions) {
			break
		}
		pts, frac, jerr := resilienceFractionFromJournal(raw)
		if jerr != nil {
			return nil, jerr
		}
		if frac != fractions[start] {
			return nil, fmt.Errorf("core: journal resilience fraction %g, sweep expects %g — journal from a different sweep?",
				frac, fractions[start])
		}
		res.Points = append(res.Points, pts...)
		res.Fractions = append(res.Fractions, frac)
		start++
		prog.Step(1)
	}
	for i := start; i < len(fractions); i++ {
		frac := fractions[i]
		if ctx.Err() != nil && len(res.Fractions) > 0 {
			res.Partial = true
			return res, ctx.Err()
		}
		plan, err := fault.ForScenario(scenario, frac, resilienceSeed(s.Scale.Seed, i))
		if err != nil {
			return nil, err
		}
		fsp := telemetry.RecordSpan(ctx, telemetry.StageFaultRealize)
		perSnap := make([]*fault.Outages, len(times))
		for si, t := range times {
			if perSnap[si], err = plan.RealizeAt(s.Const, len(s.Seg.Terminals), t); err != nil {
				break
			}
		}
		fsp.End()
		if err != nil {
			return nil, err
		}
		outages := perSnap[0]
		progressf("resilience %s %.0f%%: %d sats, %d sites, %d lasers down\n",
			scenario, frac*100, outages.NumFailedSats(), outages.NumFailedSites(),
			outages.NumFailedISLs())
		for _, mode := range []Mode{BP, Hybrid} {
			ev, err := s.evalFaulted(ctx, mode, perSnap, times)
			if err != nil {
				if ctx.Err() != nil && len(res.Fractions) > 0 {
					// Drop this fraction's already-evaluated modes so
					// Points only ever holds complete fractions.
					res.Points = res.Points[:2*len(res.Fractions)]
					res.Partial = true
					return res, ctx.Err()
				}
				return nil, err
			}
			base := baseline[mode]
			res.Points = append(res.Points, ResiliencePoint{
				Fraction:            frac,
				Mode:                mode,
				FailedSats:          outages.NumFailedSats(),
				FailedSites:         outages.NumFailedSites(),
				FailedISLs:          outages.NumFailedISLs(),
				MedianRTTMs:         ev.median,
				P99RTTMs:            ev.p99,
				MedianInflationPct:  pctIncrease(base.median, ev.median),
				P99InflationPct:     pctIncrease(base.p99, ev.p99),
				UnreachableFrac:     ev.unreachable,
				ThroughputGbps:      ev.tput,
				ThroughputRetention: retention(ev.tput, base.tput),
			})
		}
		if jour != nil {
			if jerr := jour.Step(jkey, resilienceFractionToJournal(frac, res.Points[len(res.Points)-2:])); jerr != nil {
				return nil, jerr
			}
		}
		res.Fractions = append(res.Fractions, frac)
		prog.Step(1)
	}
	return res, nil
}

// ---- journal payloads ----------------------------------------------------
//
// Journal floats use *float64 with nil ⇔ +Inf (see journal.go); modes are
// stored as their integer values for exact round-trips.

type resilienceEvalJSON struct {
	Median      *float64 `json:"median"`
	P99         *float64 `json:"p99"`
	Unreachable float64  `json:"unreachable"`
	Tput        float64  `json:"tput"`
}

type resiliencePointJSON struct {
	Fraction            float64  `json:"fraction"`
	Mode                int      `json:"mode"`
	FailedSats          int      `json:"failedSats"`
	FailedSites         int      `json:"failedSites"`
	FailedISLs          int      `json:"failedIsls"`
	MedianRTTMs         *float64 `json:"medianRttMs"`
	P99RTTMs            *float64 `json:"p99RttMs"`
	MedianInflationPct  *float64 `json:"medianInflationPct"`
	P99InflationPct     *float64 `json:"p99InflationPct"`
	UnreachableFrac     float64  `json:"unreachableFrac"`
	ThroughputGbps      float64  `json:"throughputGbps"`
	ThroughputRetention float64  `json:"throughputRetention"`
}

type resilienceJournalStep struct {
	// Baseline is set on the sweep's first step only.
	BaselineBP     *resilienceEvalJSON `json:"baselineBp,omitempty"`
	BaselineHybrid *resilienceEvalJSON `json:"baselineHybrid,omitempty"`
	// Fraction/Points describe one completed sweep fraction (both modes).
	Fraction *float64              `json:"fraction,omitempty"`
	Points   []resiliencePointJSON `json:"points,omitempty"`
}

func resilienceBaselineToJournal(baseline map[Mode]modeEval) resilienceJournalStep {
	conv := func(ev modeEval) *resilienceEvalJSON {
		return &resilienceEvalJSON{
			Median: finiteOrNil(ev.median), P99: finiteOrNil(ev.p99),
			Unreachable: ev.unreachable, Tput: ev.tput,
		}
	}
	bp, hy := baseline[BP], baseline[Hybrid]
	return resilienceJournalStep{BaselineBP: conv(bp), BaselineHybrid: conv(hy)}
}

func resilienceBaselineFromJournal(raw json.RawMessage) (map[Mode]modeEval, error) {
	var st resilienceJournalStep
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("core: journal resilience baseline: %w", err)
	}
	if st.BaselineBP == nil || st.BaselineHybrid == nil {
		return nil, fmt.Errorf("core: journal resilience sweep is missing its baseline step")
	}
	conv := func(e *resilienceEvalJSON) modeEval {
		return modeEval{
			median: infOrVal(e.Median), p99: infOrVal(e.P99),
			unreachable: e.Unreachable, tput: e.Tput,
		}
	}
	return map[Mode]modeEval{BP: conv(st.BaselineBP), Hybrid: conv(st.BaselineHybrid)}, nil
}

func resilienceFractionToJournal(frac float64, pts []ResiliencePoint) resilienceJournalStep {
	st := resilienceJournalStep{Fraction: &frac}
	for _, p := range pts {
		st.Points = append(st.Points, resiliencePointJSON{
			Fraction: p.Fraction, Mode: int(p.Mode),
			FailedSats: p.FailedSats, FailedSites: p.FailedSites, FailedISLs: p.FailedISLs,
			MedianRTTMs: finiteOrNil(p.MedianRTTMs), P99RTTMs: finiteOrNil(p.P99RTTMs),
			MedianInflationPct: finiteOrNil(p.MedianInflationPct),
			P99InflationPct:    finiteOrNil(p.P99InflationPct),
			UnreachableFrac:    p.UnreachableFrac,
			ThroughputGbps:     p.ThroughputGbps, ThroughputRetention: p.ThroughputRetention,
		})
	}
	return st
}

func resilienceFractionFromJournal(raw json.RawMessage) ([]ResiliencePoint, float64, error) {
	var st resilienceJournalStep
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, 0, fmt.Errorf("core: journal resilience step: %w", err)
	}
	if st.Fraction == nil || len(st.Points) != 2 {
		return nil, 0, fmt.Errorf("core: journal resilience step is not a completed fraction")
	}
	pts := make([]ResiliencePoint, len(st.Points))
	for i, p := range st.Points {
		pts[i] = ResiliencePoint{
			Fraction: p.Fraction, Mode: Mode(p.Mode),
			FailedSats: p.FailedSats, FailedSites: p.FailedSites, FailedISLs: p.FailedISLs,
			MedianRTTMs: infOrVal(p.MedianRTTMs), P99RTTMs: infOrVal(p.P99RTTMs),
			MedianInflationPct: infOrVal(p.MedianInflationPct),
			P99InflationPct:    infOrVal(p.P99InflationPct),
			UnreachableFrac:    p.UnreachableFrac,
			ThroughputGbps:     p.ThroughputGbps, ThroughputRetention: p.ThroughputRetention,
		}
	}
	return pts, *st.Fraction, nil
}

func retention(val, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return val / base
}

// evalFaulted evaluates one mode under each snapshot's outage set (nil =
// healthy): it masks each snapshot's cached healthy network, measures
// per-pair best RTTs and reachability across the snapshots, and runs the §5
// throughput model at the first one.
func (s *Sim) evalFaulted(ctx context.Context, mode Mode, perSnap []*fault.Outages, times []time.Time) (*modeEval, error) {
	best := fill(len(s.Pairs), math.Inf(1))
	ev := &modeEval{}
	for si, t := range times {
		n, err := s.BuildNetworkAt(ctx, t, mode, perSnap[si])
		if err != nil {
			return nil, err
		}
		if si == 0 {
			tp, err := throughputOn(ctx, s, n, resilienceK)
			if err != nil {
				return nil, err
			}
			ev.tput = tp.AggregateGbps
		}
		rtts, err := s.pairRTTs(ctx, n, false)
		if err != nil {
			return nil, err
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
	ev.unreachable = 1 - float64(len(reachable))/float64(len(best))
	if len(reachable) > 0 {
		ev.median = stats.Percentile(reachable, 50)
		ev.p99 = stats.Percentile(reachable, 99)
	} else {
		ev.median, ev.p99 = math.Inf(1), math.Inf(1)
	}
	return ev, nil
}

// BPPoint and HybridPoint fetch the two rows of one fraction (helpers for
// reports and tests); ok is false if the fraction is absent.
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
