package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/safe"
	"leosim/internal/stats"
	"leosim/internal/telemetry"
	"leosim/internal/topo"
)

// The topo sweep's fixed probe settings: throughput over topoK disjoint paths
// per pair (the middle of Fig 4's range), and a fault probe failing
// topoFaultFraction of the -fault scenario's elements — correlated enough to
// separate sparse from dense motifs without blacking the network out — drawn
// with the scale's seed.
const (
	topoK             = 3
	topoFaultFraction = 0.1
)

// TopoCell is one motif × mode cell of the topology comparison.
type TopoCell struct {
	Motif topo.ID `json:"motif"`
	Mode  Mode    `json:"mode"`
	// ISLCount and MeanISLKm describe the link set at the epoch (for
	// epoch-aware motifs the count can drift slightly across snapshots).
	ISLCount  int     `json:"islCount"`
	MeanISLKm float64 `json:"meanIslKm"`
	// MedianRTTMs / P99RTTMs summarize the pooled per-pair RTTs across
	// every snapshot; DemandWeightedMedianRTTMs weighs each sample by its
	// pair's population product (the gravity demand the demand motif
	// optimizes for). UnreachableFrac is the unreachable share of
	// (pair, snapshot) samples.
	MedianRTTMs               Float   `json:"medianRttMs"`
	P99RTTMs                  Float   `json:"p99RttMs"`
	DemandWeightedMedianRTTMs Float   `json:"demandWeightedMedianRttMs"`
	UnreachableFrac           float64 `json:"unreachableFrac"`
	// ThroughputGbps is the max-min fair aggregate at the epoch snapshot.
	ThroughputGbps float64 `json:"throughputGbps"`
	// FaultMedianRTTMs, FaultUnreachableFrac and ThroughputRetention
	// re-evaluate the epoch snapshot under the fault plan.
	FaultMedianRTTMs     Float   `json:"faultMedianRttMs"`
	FaultUnreachableFrac float64 `json:"faultUnreachableFrac"`
	ThroughputRetention  float64 `json:"throughputRetention"`
	// RouteChangesPerMin is the churn-window route-change rate.
	RouteChangesPerMin float64 `json:"routeChangesPerMin"`
}

// TopoResult is the topology-lab comparison: every swept motif × mode cell
// plus the sweep configuration needed to interpret it.
type TopoResult struct {
	Motifs        []topo.ID
	K             int
	FaultScenario fault.Scenario
	FaultFraction float64
	FaultSeed     int64
	ChurnStep     time.Duration
	ChurnWindow   time.Duration
	SnapshotsUsed int
	Cells         []TopoCell
}

// Cell returns the cell for (motif, mode), or nil.
func (r *TopoResult) Cell(id topo.ID, mode Mode) *TopoCell {
	for i := range r.Cells {
		if r.Cells[i].Motif == id && r.Cells[i].Mode == mode {
			return &r.Cells[i]
		}
	}
	return nil
}

// RunTopo runs the topology-lab sweep: every motif under BP and Hybrid
// connectivity, compared on pooled latency (median/p99/demand-weighted),
// max-min fair throughput, fault resilience (a.Fault), and route churn over
// a.ChurnWindow in steps of a.ChurnStep.
//
// Each motif is a sim derived from s, so it keeps s's shells, propagator,
// ground segment, traffic matrix and capacities; only the ISL set differs,
// and every difference between cells is attributable to the motif.
// Epoch-aware motifs (nearest, demand) are re-placed for each snapshot
// build — the per-snapshot re-optimization the paper's fixed +Grid cannot
// express — but hold their link set fixed across the churn window:
// re-pointing lasers is a snapshot-scale operation, not a seconds-scale one.
// BP cells do not depend on the motif (no ISLs); they are evaluated once on s
// and replicated so the table stays rectangular, and their equality across
// motifs is itself the BP-invariance control. Deterministic: the same sim and
// arguments always produce byte-identical results.
func RunTopo(ctx context.Context, s *Sim, a Args) (res *TopoResult, err error) {
	defer safe.RecoverTo(&err)
	if _, err := churnSteps(a.ChurnStep, a.ChurnWindow); err != nil {
		return nil, err
	}
	res = &TopoResult{
		Motifs:        topo.IDs(),
		K:             topoK,
		FaultScenario: a.Fault,
		FaultFraction: topoFaultFraction,
		FaultSeed:     s.Scale.Seed,
		ChurnStep:     a.ChurnStep,
		ChurnWindow:   a.ChurnWindow,
		SnapshotsUsed: s.Scale.NumSnapshots,
	}

	prog := telemetry.NewProgress(Progress, "topo", len(res.Motifs)+1)
	defer prog.Finish()

	bpCell, err := s.topoEval(ctx, BP, res)
	if err != nil {
		return nil, err
	}
	prog.Step(1)

	for _, id := range res.Motifs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ms, err := s.derive(WithMotifID(id))
		if err != nil {
			return nil, fmt.Errorf("core: building motif %s: %w", id, err)
		}
		hyCell, err := ms.topoEval(ctx, Hybrid, res)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating motif %s: %w", id, err)
		}
		hyCell.Motif = id

		bp := bpCell
		bp.Motif = id
		res.Cells = append(res.Cells, bp, hyCell)
		prog.Step(1)
		progressf("topo: %-10s done (hybrid median %.1f ms, %d ISLs)\n",
			id, hyCell.MedianRTTMs, hyCell.ISLCount)
	}
	return res, nil
}

// topoEval computes one TopoCell on s's mode network under the settings of
// sweep: throughput and fault resilience at the epoch snapshot, latency
// pooled over the snapshot grid, and route churn over the seconds-scale
// window.
func (s *Sim) topoEval(ctx context.Context, mode Mode, sweep *TopoResult) (TopoCell, error) {
	cell := TopoCell{Mode: mode}
	if mode == Hybrid {
		st := s.Const.StatsAt(geo.Epoch)
		cell.ISLCount, cell.MeanISLKm = st.Count, st.MeanKm
	}

	// Throughput at the epoch snapshot — the epoch probes run before the day
	// sweep, while the epoch entry is still resident in s's cache.
	epochNet := s.NetworkAtCtx(ctx, geo.Epoch, mode)
	tp, err := throughputOn(ctx, s, epochNet, sweep.K)
	if err != nil {
		return cell, err
	}
	cell.ThroughputGbps = tp.AggregateGbps

	// Fault resilience: the same outage plan masked onto the epoch snapshot
	// (same seed across motifs, so every cell loses the same
	// satellites/sites and differences are purely topological).
	plan, err := fault.ForScenario(sweep.FaultScenario, sweep.FaultFraction, sweep.FaultSeed)
	if err != nil {
		return cell, err
	}
	outages, err := plan.RealizeAt(s.Const, len(s.Seg.Terminals), geo.Epoch)
	if err != nil {
		return cell, err
	}
	fn, err := s.BuildNetworkAt(ctx, geo.Epoch, mode, outages)
	if err != nil {
		return cell, err
	}
	frr, err := s.pairRTTs(ctx, fn)
	if err != nil {
		return cell, err
	}
	var faultRtts []float64
	faultUnreachable := 0
	for _, r := range frr {
		if math.IsInf(r, 1) {
			faultUnreachable++
			continue
		}
		faultRtts = append(faultRtts, r)
	}
	cell.FaultMedianRTTMs = Float(stats.Percentile(faultRtts, 50))
	cell.FaultUnreachableFrac = float64(faultUnreachable) / float64(len(frr))
	ftp, err := throughputOn(ctx, s, fn, sweep.K)
	if err != nil {
		return cell, err
	}
	if tp.AggregateGbps > 0 {
		cell.ThroughputRetention = ftp.AggregateGbps / tp.AggregateGbps
	}

	// Latency: pooled per-(pair, snapshot) RTT samples across the day, each
	// weighted for the demand-weighted view by its pair's population product
	// (the gravity demand the demand motif places links for).
	var rtts, wts []float64
	samples, unreachable := 0, 0
	for _, t := range s.SnapshotTimes() {
		if err := ctx.Err(); err != nil {
			return cell, err
		}
		rr, err := s.pairRTTs(ctx, s.NetworkAtCtx(ctx, t, mode))
		if err != nil {
			return cell, err
		}
		for i, r := range rr {
			samples++
			if math.IsInf(r, 1) {
				unreachable++
				continue
			}
			p := s.Pairs[i]
			rtts = append(rtts, r)
			wts = append(wts, s.Cities[p.Src].Pop*s.Cities[p.Dst].Pop)
		}
	}
	if len(rtts) == 0 {
		return cell, fmt.Errorf("core: no pair reachable in any snapshot")
	}
	cell.MedianRTTMs = Float(stats.Percentile(rtts, 50))
	cell.P99RTTMs = Float(stats.Percentile(rtts, 99))
	cell.DemandWeightedMedianRTTMs = Float(stats.WeightedMedian(rtts, wts))
	cell.UnreachableFrac = float64(unreachable) / float64(samples)

	// Route churn over the seconds-scale window, walked with a Walker. The
	// lasers stay the ones placed at the epoch, where the cursor anchors:
	// laser re-pointing is snapshot-scale.
	steps := int(sweep.ChurnWindow / sweep.ChurnStep)
	c, err := s.churnWalk(ctx, s.NewWalker(mode), geo.Epoch, sweep.ChurnStep, steps, nil)
	if err != nil {
		return cell, err
	}
	if c.used > 0 {
		perMin := float64(time.Minute) / float64(sweep.ChurnStep)
		cell.RouteChangesPerMin = float64(c.routes) / (float64(c.used) * float64(steps)) * perMin
	}
	return cell, nil
}

// DemandAdvantagePct returns how much lower (positive = better) the demand
// motif's demand-weighted median latency is than plus-grid's, both under
// Hybrid — the headline the demand-aware optimizer is judged on.
func (r *TopoResult) DemandAdvantagePct() float64 {
	dem, plus := r.Cell(topo.Demand, Hybrid), r.Cell(topo.PlusGrid, Hybrid)
	if dem == nil || plus == nil || plus.DemandWeightedMedianRTTMs <= 0 {
		return 0
	}
	return float64((plus.DemandWeightedMedianRTTMs - dem.DemandWeightedMedianRTTMs) /
		plus.DemandWeightedMedianRTTMs * 100)
}

// WriteTopoReport renders the motif comparison table.
func WriteTopoReport(w io.Writer, r *TopoResult) {
	fmt.Fprintf(w, "topo sweep: %d motifs × 2 modes, %d snapshots, fault=%s@%.0f%%, churn %v/%v\n",
		len(r.Motifs), r.SnapshotsUsed, r.FaultScenario, r.FaultFraction*100, r.ChurnStep, r.ChurnWindow)
	fmt.Fprintf(w, "%-10s %-6s %6s %8s %8s %8s %8s %8s %9s %8s %8s\n",
		"motif", "mode", "isls", "med ms", "p99 ms", "dw-med", "unreach", "tput", "retention", "flt med", "chg/min")
	cells := append([]TopoCell(nil), r.Cells...)
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].Motif != cells[j].Motif {
			return cells[i].Motif < cells[j].Motif
		}
		return cells[i].Mode < cells[j].Mode
	})
	for _, c := range cells {
		fmt.Fprintf(w, "%-10s %-6s %6d %8.1f %8.1f %8.1f %7.1f%% %8.1f %8.2f %8.1f %8.2f\n",
			c.Motif, c.Mode, c.ISLCount, c.MedianRTTMs, c.P99RTTMs, c.DemandWeightedMedianRTTMs,
			c.UnreachableFrac*100, c.ThroughputGbps, c.ThroughputRetention,
			c.FaultMedianRTTMs, c.RouteChangesPerMin)
	}
	if adv := r.DemandAdvantagePct(); adv != 0 {
		fmt.Fprintf(w, "topo demand-aware vs +Grid on demand-weighted median latency: %+.1f%%\n", adv)
	}
}
