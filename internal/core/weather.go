package core

import (
	"context"
	"fmt"
	"math"

	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/itur"
	"leosim/internal/safe"
	"leosim/internal/stats"
	"leosim/internal/telemetry"
)

// WeatherResult holds the §6 experiment output.
type WeatherResult struct {
	// P995BP and P995ISL are, per pair, the attenuation (dB) exceeded
	// 0.5% of the time (the "99.5th percentile attenuation"), combining
	// the weather statistics of the links the path actually used across
	// the day's snapshots. BP paths report the worst radio link of the
	// zig-zag; ISL paths report the worse of the first/last hop only.
	P995BP  []float64 `json:"p995BpDb"`
	P995ISL []float64 `json:"p995IslDb"`
	// PairsUsed counts pairs reachable in both models in ≥ 1 snapshot.
	PairsUsed int `json:"pairsUsed"`
}

// pathCurve computes the attenuation exceedance curve of a routed path: the
// pointwise-worst curve over its radio (GSL) links. ISLs contribute nothing
// (lasers above the atmosphere); the model assumes signal regeneration at
// each GT (§6), so attenuations do not accumulate multiplicatively.
//
// Direction matters for frequency: hops from a terminal up to a satellite
// use the uplink frequency, hops down use the downlink frequency, evaluated
// at the terminal end's location and elevation.
func pathCurve(n *graph.Network, p graph.Path, band Band) (itur.Curve, error) {
	curves := make([]itur.Curve, 0, len(p.Links))
	for i, li := range p.Links {
		l := n.Links[li]
		if l.Kind != graph.LinkGSL {
			continue
		}
		from := p.Nodes[i]
		to := p.Nodes[i+1]
		term, sat := from, to
		freq := band.UpGHz // terminal transmits up
		if n.Kind[from] == graph.NodeSatellite {
			term, sat = to, from
			freq = band.DownGHz // satellite transmits down to the terminal
		}
		tll := geo.FromECEF(n.Pos[term])
		lp := itur.LinkParams{
			LatDeg:          tll.Lat,
			LonDeg:          tll.Lon,
			ElevationDeg:    math.Max(geo.Elevation(n.Pos[term], n.Pos[sat]), 5),
			FreqGHz:         freq,
			Pol:             itur.PolCircular,
			StationHeightKm: math.Max(tll.Alt, 0),
		}
		c, err := itur.NewCurve(lp)
		if err != nil {
			return itur.Curve{}, err
		}
		curves = append(curves, c)
	}
	if len(curves) == 0 {
		return itur.ZeroCurve(), nil
	}
	return itur.WorstOf(curves...), nil
}

// appendCurve appends the attenuation curve of p, a path of n, to curves;
// the zero Path of an unreachable pair appends nothing.
func appendCurve(curves []itur.Curve, n *graph.Network, p graph.Path, band Band) ([]itur.Curve, error) {
	if len(p.Nodes) == 0 {
		return curves, nil
	}
	c, err := pathCurve(n, p, band)
	return append(curves, c), err
}

// weatherCurves computes, for each pair, the per-snapshot path attenuation
// curves under the BP model (worst link of the zig-zag shortest path) and
// the pure-ISL model (worst of first/last hop of the satellite-transit-only
// shortest path), each read off one search per source city. The snapshot
// loop is outermost so each network is built exactly once.
func weatherCurves(ctx context.Context, s *Sim, pairs []Pair, band Band) (bp, isl [][]itur.Curve, err error) {
	defer safe.RecoverTo(&err)
	bp = make([][]itur.Curve, len(pairs))
	isl = make([][]itur.Curve, len(pairs))
	times := s.SnapshotTimes()
	prog := telemetry.NewProgress(Progress, "weather", len(times))
	defer prog.Finish()
	for _, t := range times {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		bpNet := s.NetworkAtCtx(ctx, t, BP)
		hyNet := s.NetworkAtCtx(ctx, t, Hybrid)
		bpPaths, err := pairPaths(ctx, graph.View{N: bpNet}, pairs, nil, false)
		if err != nil {
			return nil, nil, err
		}
		islPaths, err := pairPaths(ctx, graph.View{N: hyNet}, pairs, nil, true)
		if err != nil {
			return nil, nil, err
		}
		// Recorder-only span over the snapshot's curves, each source's pairs
		// on its own worker; the per-curve cost feeds the registry histogram
		// from itur.NewCurve.
		sp := telemetry.RecordSpan(ctx, telemetry.StageWeather)
		err = eachGroup(ctx, pairs, pairSrc, func(_ int, pis []int) (err error) {
			for _, pi := range pis {
				if bp[pi], err = appendCurve(bp[pi], bpNet, bpPaths[pi], band); err != nil {
					return err
				}
				if isl[pi], err = appendCurve(isl[pi], hyNet, islPaths[pi], band); err != nil {
					return err
				}
			}
			return nil
		})
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		prog.Step(1)
	}
	return bp, isl, nil
}

// RunWeather runs the Fig 6 experiment at Ku band: for every pair, the
// 99.5th percentile attenuation (A at p=0.5%) of BP versus ISL paths.
func RunWeather(ctx context.Context, s *Sim) (*WeatherResult, error) {
	return RunWeatherBand(ctx, s, KuBand)
}

// RunWeatherBand runs Fig 6 at an arbitrary frequency plan. §6 notes the
// difference "would be even higher for Ka-band communication (intended for
// use for larger terrestrial gateways), which is affected more by weather";
// pass KaBand to quantify that.
func RunWeatherBand(ctx context.Context, s *Sim, band Band) (*WeatherResult, error) {
	bp, isl, err := weatherCurves(ctx, s, s.Pairs, band)
	if err != nil {
		return nil, err
	}
	// Each pair's day curves combine on its source's worker, written by pair
	// index, under a recorder-only weather span; the result keeps pair order.
	p995BP, p995ISL := make([]float64, len(s.Pairs)), make([]float64, len(s.Pairs))
	sp := telemetry.RecordSpan(ctx, telemetry.StageWeather)
	err = eachGroup(ctx, s.Pairs, pairSrc, func(_ int, pis []int) error {
		for _, pi := range pis {
			if len(bp[pi]) > 0 && len(isl[pi]) > 0 {
				p995BP[pi] = itur.CombineOverTime(bp[pi]).At(0.5)
				p995ISL[pi] = itur.CombineOverTime(isl[pi]).At(0.5)
			}
		}
		return nil
	})
	sp.End()
	if err != nil {
		return nil, err
	}
	res := &WeatherResult{}
	for pi := range s.Pairs {
		if len(bp[pi]) == 0 || len(isl[pi]) == 0 {
			continue
		}
		res.PairsUsed++
		res.P995BP = append(res.P995BP, p995BP[pi])
		res.P995ISL = append(res.P995ISL, p995ISL[pi])
	}
	if res.PairsUsed == 0 {
		return nil, fmt.Errorf("core: no pair routable in both weather models")
	}
	return res, nil
}

// MedianAdvantageDB returns how many dB lower the ISL median attenuation is
// (§6: "the median with ISLs is more than 1 dB lower").
func (r *WeatherResult) MedianAdvantageDB() float64 {
	return stats.Percentile(r.P995BP, 50) - stats.Percentile(r.P995ISL, 50)
}

// PairWeather is the Fig 7/8 output for one named pair (Delhi–Sydney in the
// paper): full day-combined exceedance curves for both models.
type PairWeather struct {
	SrcCity, DstCity  string
	BPCurve, ISLCurve itur.Curve
}

// RunPairWeather computes the Fig 8 curves for one named city pair. A city
// missing from s's set is added to a private derivation of s (the paper notes
// Delhi–Sydney is not among the sampled pairs).
func RunPairWeather(ctx context.Context, s *Sim, srcName, dstName string) (*PairWeather, error) {
	s, src, dst, err := s.withPair(srcName, dstName)
	if err != nil {
		return nil, err
	}
	bp, isl, err := weatherCurves(ctx, s, []Pair{{Src: src, Dst: dst}}, KuBand)
	if err != nil {
		return nil, err
	}
	if len(bp[0]) == 0 || len(isl[0]) == 0 {
		return nil, fmt.Errorf("core: %s–%s unroutable in one of the models", srcName, dstName)
	}
	return &PairWeather{
		SrcCity: srcName, DstCity: dstName,
		BPCurve:  itur.CombineOverTime(bp[0]),
		ISLCurve: itur.CombineOverTime(isl[0]),
	}, nil
}

// At1Percent reports the attenuations exceeded 1% of the time and the
// implied received-power fractions (§6 Fig 8: BP 5 dB vs ISL 2.2 dB at 1%
// of the time on Delhi–Sydney).
func (p *PairWeather) At1Percent() (bpDB, islDB, bpPower, islPower float64) {
	bpDB = p.BPCurve.At(1)
	islDB = p.ISLCurve.At(1)
	return bpDB, islDB, itur.ReceivedPowerFraction(bpDB), itur.ReceivedPowerFraction(islDB)
}
