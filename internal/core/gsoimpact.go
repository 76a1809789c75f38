package core

import (
	"context"
	"fmt"
	"io"
	"math"

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

	var eqPairs []Pair
	for _, p := range s.Pairs {
		if math.Abs(s.Cities[p.Src].Lat) <= 15 || math.Abs(s.Cities[p.Dst].Lat) <= 15 {
			eqPairs = append(eqPairs, p)
		}
	}
	res.EquatorialPairs = len(eqPairs)
	if len(eqPairs) == 0 {
		return nil, fmt.Errorf("core: no equatorial-involved pairs in the sample")
	}

	// Restrict to pairs reachable unconstrained under BOTH modes so the
	// two unreachability fractions share a denominator (and the hybrid ⊇
	// BP graph containment makes them comparable).
	freeRTT := map[Mode]map[int]float64{BP: {}, Hybrid: {}}
	for _, mode := range []Mode{BP, Hybrid} {
		free := s.NetworkAt(t, mode)
		for pi, p := range eqPairs {
			if pf, ok := free.ShortestPath(free.CityNode(p.Src), free.CityNode(p.Dst)); ok {
				freeRTT[mode][pi] = pf.RTTMs()
			}
		}
	}
	var eligible []int
	for pi := range eqPairs {
		if _, a := freeRTT[BP][pi]; a {
			if _, b := freeRTT[Hybrid][pi]; b {
				eligible = append(eligible, pi)
			}
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("core: no equatorial pair reachable under both unconstrained modes")
	}
	res.EquatorialPairs = len(eligible)

	for _, mode := range []Mode{BP, Hybrid} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gso := constrained.NetworkAt(t, mode)
		var inflations []float64
		unreachable := 0
		for _, pi := range eligible {
			p := eqPairs[pi]
			pg, ok := gso.ShortestPath(gso.CityNode(p.Src), gso.CityNode(p.Dst))
			if !ok {
				unreachable++
				continue
			}
			inflations = append(inflations, pg.RTTMs()-freeRTT[mode][pi])
		}
		unFrac := float64(unreachable) / float64(len(eligible))
		med := stats.Percentile(inflations, 50)
		if math.IsNaN(med) {
			med = math.Inf(1)
		}
		if mode == BP {
			res.UnreachableFracBP = unFrac
			res.MedianInflationBPMs = med
		} else {
			res.UnreachableFracHybrid = unFrac
			res.MedianInflationHybridMs = med
		}
	}
	return res, nil
}

// WriteGSOImpactReport renders the comparison.
func WriteGSOImpactReport(w io.Writer, r *GSOImpactResult) {
	fmt.Fprintf(w, "gso-impact equatorial pairs: %d\n", r.EquatorialPairs)
	fmt.Fprintf(w, "gso-impact bp:     %4.0f%% become unreachable, median RTT inflation %+.1f ms\n",
		r.UnreachableFracBP*100, r.MedianInflationBPMs)
	fmt.Fprintf(w, "gso-impact hybrid: %4.0f%% become unreachable, median RTT inflation %+.1f ms\n",
		r.UnreachableFracHybrid*100, r.MedianInflationHybridMs)
}
