package core

import (
	"context"

	"leosim/internal/check"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/safe"
)

// CheckOptions sizes an invariant-checking sweep.
type CheckOptions struct {
	// Snapshots caps how many of the scale's snapshot times are swept
	// (0 = all of them).
	Snapshots int
	// PairSample caps how many traffic pairs get the per-pair checks
	// (symmetry, dominance) per snapshot; pairs are sampled at a fixed
	// stride so the set is deterministic. Default 24.
	PairSample int
	// OptimalitySample caps how many pairs are verified against the naive
	// O(V²) reference Dijkstra per snapshot — the expensive check.
	// Default 6.
	OptimalitySample int
	// MinISLAltKm is the atmosphere floor ISLs must clear (§2). Default
	// 80 km; pass a negative value to disable (sparse test shells).
	MinISLAltKm float64
}

func (o *CheckOptions) setDefaults() {
	if o.PairSample <= 0 {
		o.PairSample = 24
	}
	if o.OptimalitySample <= 0 {
		o.OptimalitySample = 6
	}
	if o.MinISLAltKm == 0 {
		o.MinISLAltKm = 80
	}
	if o.MinISLAltKm < 0 {
		o.MinISLAltKm = 0
	}
}

// RunCheck sweeps the invariant-validation suite (internal/check) over the
// sim: for every checked snapshot it validates both modes' graphs against
// the constellation's physics, routed paths against continuity/lower-bound/
// symmetry/dominance/optimality oracles, and the max-min throughput
// allocation against the Bertsekas–Gallager bottleneck conditions. The
// returned report carries violation samples tagged with snapshot and mode;
// it is the engine behind `leosim check`.
func RunCheck(ctx context.Context, s *Sim, opts CheckOptions) (rep *check.Report, err error) {
	defer safe.RecoverTo(&err)
	opts.setDefaults()

	geom := check.NewGeometry(s.Const)
	geom.MinISLAltKm = opts.MinISLAltKm

	times := s.SnapshotTimes()
	if opts.Snapshots > 0 && opts.Snapshots < len(times) {
		times = times[:opts.Snapshots]
	}
	pairStride := stride(len(s.Pairs), opts.PairSample)
	optStride := stride(len(s.Pairs), opts.OptimalitySample)

	rep = &check.Report{}
	for _, t := range times {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		label := "t+" + t.Sub(geo.Epoch).String()
		nets := map[Mode]*graph.Network{}
		for _, mode := range []Mode{BP, Hybrid} {
			nets[mode] = s.NetworkAtCtx(ctx, t, mode)
			rep.SetContext(label, mode.String())
			geom.CheckNetwork(rep, nets[mode])
		}
		bp, hy := nets[BP], nets[Hybrid]

		for pi := 0; pi < len(s.Pairs); pi += pairStride {
			p := s.Pairs[pi]
			src, dst := hy.CityNode(p.Src), hy.CityNode(p.Dst)
			rep.SetContext(label, Hybrid.String())
			check.CheckSymmetry(rep, hy, src, dst)
			rep.SetContext(label, "bp-vs-hybrid")
			check.CheckDominance(rep, bp, hy, src, dst)
		}
		for pi := 0; pi < len(s.Pairs); pi += optStride {
			p := s.Pairs[pi]
			for _, mode := range []Mode{BP, Hybrid} {
				n := nets[mode]
				rep.SetContext(label, mode.String())
				check.CheckOptimality(rep, n, n.CityNode(p.Src), n.CityNode(p.Dst), false)
			}
		}
		for _, mode := range []Mode{BP, Hybrid} {
			rep.SetContext(label, mode.String())
			if err := checkMaxMin(ctx, s, rep, nets[mode]); err != nil {
				return nil, err
			}
		}
	}
	rep.SetContext("", "")
	return rep, nil
}

// checkMaxMin routes the full traffic matrix over shortest paths, solves the
// max-min allocation exactly as the throughput experiments do, and holds the
// result to the defining optimality conditions via the independent
// flow.VerifyMaxMin oracle.
func checkMaxMin(ctx context.Context, s *Sim, rep *check.Report, n *graph.Network) error {
	pr, _, err := loadPairFlows(ctx, s, n, 1)
	if err != nil {
		return err
	}
	alloc, err := maxMinFair(ctx, pr)
	if err != nil {
		return err
	}
	for _, v := range pr.VerifyMaxMin(alloc, maxMinTolGbps) {
		rep.Violatef(check.ClassFlow, "%s: %s", v.Kind, v.Detail)
	}
	rep.Checked("flow-allocations", len(alloc))
	return nil
}

// maxMinTolGbps absorbs float accumulation across progressive-filling
// rounds; violations of interest (oversubscription, starved flows) are
// orders of magnitude larger.
const maxMinTolGbps = 1e-6

// stride returns the pair-index step that yields ~want samples.
func stride(total, want int) int {
	if want <= 0 || total <= want {
		return 1
	}
	return total / want
}
