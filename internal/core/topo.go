package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/stats"
	"leosim/internal/telemetry"
	"leosim/internal/topo"
)

// TopoOptions configures the topology-lab sweep. The zero value sweeps every
// built-in motif under both modes with the defaults noted per field.
type TopoOptions struct {
	// Motifs lists the motifs to sweep (nil = every built-in motif).
	Motifs []topo.ID
	// K is the multipath degree of the throughput evaluation (0 = 3, the
	// middle of Fig 4's range).
	K int
	// FaultScenario and FaultFraction define the resilience probe
	// (defaults: sat outage, 10% — correlated enough to separate sparse
	// from dense motifs without blacking the network out).
	FaultScenario fault.Scenario
	FaultFraction float64
	// FaultSeed drives outage sampling (0 = the sim's scale seed).
	FaultSeed int64
	// ChurnStep and ChurnWindow define the seconds-scale route-stability
	// probe (defaults 1s / 30s), walked with the incremental advancer.
	ChurnStep, ChurnWindow time.Duration
}

func (o *TopoOptions) setDefaults(s *Sim) {
	if len(o.Motifs) == 0 {
		o.Motifs = topo.IDs()
	}
	if o.K <= 0 {
		o.K = 3
	}
	if o.FaultScenario == "" {
		o.FaultScenario = fault.SatOutage
	}
	if o.FaultFraction == 0 {
		o.FaultFraction = 0.1
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = s.Scale.Seed
	}
	if o.ChurnStep <= 0 {
		o.ChurnStep = time.Second
	}
	if o.ChurnWindow <= 0 {
		o.ChurnWindow = 30 * time.Second
	}
}

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
	// RouteChangesPerMin is the churn-window route-change rate;
	// FullRebuilds counts advancer fallbacks in that walk (expected 0 at
	// seconds-scale steps).
	RouteChangesPerMin float64 `json:"routeChangesPerMin"`
	FullRebuilds       int     `json:"fullRebuilds"`
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
// max-min fair throughput, fault resilience, and seconds-scale route churn.
//
// Per-motif evaluation shares the sim's ground segment, fleet, traffic
// matrix and capacities; only the constellation's ISL set differs, so every
// difference between cells is attributable to the motif. Epoch-aware motifs
// (nearest, demand) are re-placed for each snapshot build — the per-snapshot
// re-optimization the paper's fixed +Grid cannot express — but hold their
// link set fixed across the churn window: re-pointing lasers is a
// snapshot-scale operation, not a seconds-scale one. BP cells do not depend
// on the motif (no ISLs); they are evaluated once and replicated so the
// table stays rectangular, and their equality across motifs is itself the
// BP-invariance control. Deterministic: the same sim and options always
// produce byte-identical results.
func RunTopo(ctx context.Context, s *Sim, opt TopoOptions) (res *TopoResult, err error) {
	defer safe.RecoverTo(&err)
	opt.setDefaults(s)
	times := s.SnapshotTimes()

	res = &TopoResult{
		Motifs:        opt.Motifs,
		K:             opt.K,
		FaultScenario: opt.FaultScenario,
		FaultFraction: opt.FaultFraction,
		FaultSeed:     opt.FaultSeed,
		ChurnStep:     opt.ChurnStep,
		ChurnWindow:   opt.ChurnWindow,
		SnapshotsUsed: len(times),
	}

	// Gravity weights for the demand-weighted latency view: a pair counts
	// by the population product of its endpoints, matching the corridor
	// model the demand motif places links for.
	weights := make([]float64, len(s.Pairs))
	for i, p := range s.Pairs {
		weights[i] = s.Cities[p.Src].Pop * s.Cities[p.Dst].Pop
	}

	prog := telemetry.NewProgress(Progress, "topo", len(opt.Motifs)+1)
	defer prog.Finish()

	// BP control: motif-independent, evaluated once on the sim's own
	// constellation (ISLs disabled), replicated into every motif row.
	bpCell, err := s.topoEval(ctx, s.builder, BP, times, weights, opt)
	if err != nil {
		return nil, err
	}
	prog.Step(1)

	for _, id := range opt.Motifs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m, err := topo.Build(id, topo.Config{Cities: s.Cities})
		if err != nil {
			return nil, err
		}
		// A per-motif constellation over the same shells keeps satellite
		// and terminal node indices aligned with the sim's, so the shared
		// traffic matrix and search plumbing apply unchanged.
		mc, err := constellation.New(s.Const.Shells, topo.Option(m))
		if err != nil {
			return nil, fmt.Errorf("core: building %s constellation: %w", id, err)
		}
		mb, err := graph.NewBuilder(mc, s.Seg, s.Fleet, s.builder.Opts)
		if err != nil {
			return nil, err
		}
		hyCell, err := s.topoEval(ctx, mb, Hybrid, times, weights, opt)
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

// topoEval computes one TopoCell on b's constellation: latency pooled over
// the snapshot grid, throughput and fault resilience at the epoch snapshot,
// and route churn over the seconds-scale window.
func (s *Sim) topoEval(ctx context.Context, b *graph.Builder, mode Mode,
	times []time.Time, weights []float64, opt TopoOptions) (TopoCell, error) {
	cell := TopoCell{Mode: mode}
	netAt := func(t time.Time) *graph.Network {
		n := b.At(t)
		if mode == Hybrid {
			n = b.Hybrid(n, t)
		}
		return n
	}

	if mode == Hybrid {
		st := b.Const.StatsAt(geo.Epoch)
		cell.ISLCount, cell.MeanISLKm = st.Count, st.MeanKm
	}

	// Latency: pooled per-(pair, snapshot) RTT samples across the day. The
	// epoch snapshot (the schedule's first) also feeds the throughput model.
	epochNet := netAt(geo.Epoch)
	var rtts, wts []float64
	samples, unreachable := 0, 0
	for _, t := range times {
		if err := ctx.Err(); err != nil {
			return cell, err
		}
		n := epochNet
		if !t.Equal(geo.Epoch) {
			n = netAt(t)
		}
		rr, err := s.pairRTTs(ctx, n)
		if err != nil {
			return cell, err
		}
		for i, r := range rr {
			samples++
			if math.IsInf(r, 1) {
				unreachable++
				continue
			}
			rtts = append(rtts, r)
			wts = append(wts, weights[i])
		}
	}
	if len(rtts) == 0 {
		return cell, fmt.Errorf("core: no pair reachable in any snapshot")
	}
	cell.MedianRTTMs = Float(stats.Percentile(rtts, 50))
	cell.P99RTTMs = Float(stats.Percentile(rtts, 99))
	cell.DemandWeightedMedianRTTMs = Float(stats.WeightedMedian(rtts, wts))
	cell.UnreachableFrac = float64(unreachable) / float64(samples)

	// Throughput at the epoch snapshot.
	tp, err := throughputOn(ctx, s, epochNet, opt.K)
	if err != nil {
		return cell, err
	}
	cell.ThroughputGbps = tp.AggregateGbps

	// Fault resilience: the same outage plan masked onto the epoch snapshot
	// (same seed across motifs, so every cell loses the same
	// satellites/sites and differences are purely topological).
	plan, err := fault.ForScenario(opt.FaultScenario, opt.FaultFraction, opt.FaultSeed)
	if err != nil {
		return cell, err
	}
	outages, err := plan.RealizeAt(b.Const, len(s.Seg.Terminals), geo.Epoch)
	if err != nil {
		return cell, err
	}
	fn := outages.Masked(epochNet)
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
	ftp, err := throughputOn(ctx, s, fn, opt.K)
	if err != nil {
		return cell, err
	}
	if tp.AggregateGbps > 0 {
		cell.ThroughputRetention = ftp.AggregateGbps / tp.AggregateGbps
	}

	// Route churn over the seconds-scale window, walked with the
	// incremental advancer. The link set stays the one placed at the epoch,
	// where the cursor anchors: laser re-pointing is snapshot-scale.
	steps := int(opt.ChurnWindow / opt.ChurnStep)
	c, err := s.churnWalk(ctx, &Walker{b: b, isl: mode == Hybrid}, geo.Epoch, opt.ChurnStep, steps, nil)
	if err != nil {
		return cell, err
	}
	cell.FullRebuilds = c.fullRebuilds
	if c.used > 0 && steps > 0 {
		perMin := float64(time.Minute) / float64(opt.ChurnStep)
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
