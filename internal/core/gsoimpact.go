package core

import (
	"context"
	"fmt"
	"io"
	"math"

	"leosim/internal/graph"
	"leosim/internal/ground"
	"leosim/internal/safe"
	"leosim/internal/stats"
)

// GSOImpactResult quantifies §7's closing claim: "the impact of the reduced
// GT field-of-view will be much higher on BP than on ISL connectivity, as
// for the latter, only sources and destinations in the Equatorial region
// will be affected". It compares equatorial-involved pairs with and without
// the arc-avoidance constraint under both modes.
type GSOImpactResult struct {
	// EquatorialPairs counts sampled pairs with at least one endpoint
	// within ±15° latitude.
	EquatorialPairs int
	// UnreachableFrac[mode] is the fraction of those pairs unroutable at
	// the sampled snapshot once the constraint applies.
	UnreachableFracBP, UnreachableFracHybrid float64
	// MedianInflationMs[mode] is the median RTT increase caused by the
	// constraint among pairs that stay reachable.
	MedianInflationBPMs, MedianInflationHybridMs float64
}

// RunGSOImpact compares routing with and without the Starlink 22° GSO
// separation rule for equatorial-involved pairs, at the first snapshot.
// It derives a second, GSO-constrained sim from the base sim, so the two
// differ in the constraint alone.
func RunGSOImpact(ctx context.Context, s *Sim) (res *GSOImpactResult, err error) {
	defer safe.RecoverTo(&err)
	constrained, err := s.derive(WithGSOAvoidance(ground.StarlinkGSOPolicy()))
	if err != nil {
		return nil, err
	}
	t := s.SnapshotTimes()[0]
	res = &GSOImpactResult{}

	eqPairs := s.equatorialPairs()
	if len(eqPairs) == 0 {
		return nil, fmt.Errorf("core: no equatorial-involved pairs in the sample")
	}

	// Restrict to pairs reachable unconstrained under BOTH modes so the
	// two unreachability fractions share a denominator (and the hybrid ⊇
	// BP graph containment makes them comparable).
	freeRTT := map[Mode][]float64{}
	for _, mode := range []Mode{BP, Hybrid} {
		if freeRTT[mode], err = pairRTTs(ctx, graph.View{N: s.NetworkAtCtx(ctx, t, mode)}, eqPairs, nil); err != nil {
			return nil, err
		}
	}
	eligible := make([]bool, len(eqPairs))
	for pi := range eqPairs {
		if eligible[pi] = !math.IsInf(freeRTT[BP][pi], 1) && !math.IsInf(freeRTT[Hybrid][pi], 1); eligible[pi] {
			res.EquatorialPairs++
		}
	}
	if res.EquatorialPairs == 0 {
		return nil, fmt.Errorf("core: no equatorial pair reachable under both unconstrained modes")
	}

	// impact returns the share of eligible pairs the constraint makes
	// unreachable under mode, and the median RTT inflation of the rest.
	impact := func(mode Mode) (unFrac, med float64, err error) {
		gsoRTT, err := pairRTTs(ctx, graph.View{N: constrained.NetworkAtCtx(ctx, t, mode)}, eqPairs, eligible)
		if err != nil {
			return 0, 0, err
		}
		var inflations []float64
		unreachable := 0
		for pi, ok := range eligible {
			if ok && math.IsInf(gsoRTT[pi], 1) {
				unreachable++
			} else if ok {
				inflations = append(inflations, gsoRTT[pi]-freeRTT[mode][pi])
			}
		}
		if med = stats.Percentile(inflations, 50); math.IsNaN(med) {
			med = math.Inf(1)
		}
		return float64(unreachable) / float64(res.EquatorialPairs), med, nil
	}
	if res.UnreachableFracBP, res.MedianInflationBPMs, err = impact(BP); err != nil {
		return nil, err
	}
	if res.UnreachableFracHybrid, res.MedianInflationHybridMs, err = impact(Hybrid); err != nil {
		return nil, err
	}
	return res, nil
}

// equatorialPairs returns the pairs of s with an endpoint within ±15°
// latitude, in s.Pairs order.
func (s *Sim) equatorialPairs() []Pair {
	var eq []Pair
	for _, p := range s.Pairs {
		if math.Abs(s.Cities[p.Src].Lat) <= 15 || math.Abs(s.Cities[p.Dst].Lat) <= 15 {
			eq = append(eq, p)
		}
	}
	return eq
}

// WriteGSOImpactReport renders the comparison.
func WriteGSOImpactReport(w io.Writer, r *GSOImpactResult) {
	fmt.Fprintf(w, "gso-impact equatorial pairs: %d\n", r.EquatorialPairs)
	fmt.Fprintf(w, "gso-impact bp:     %4.0f%% become unreachable, median RTT inflation %+.1f ms\n",
		r.UnreachableFracBP*100, r.MedianInflationBPMs)
	fmt.Fprintf(w, "gso-impact hybrid: %4.0f%% become unreachable, median RTT inflation %+.1f ms\n",
		r.UnreachableFracHybrid*100, r.MedianInflationHybridMs)
}
