package core

import (
	"context"
	"fmt"
	"io"

	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/itur"
	"leosim/internal/safe"
)

// HeatmapResult is the Fig 7 output: a latitude-longitude grid of the
// 99.5th-percentile uplink attenuation over a region, plus the ground hops
// of a BP path and its ISL counterpart at a chosen instant, showing that the
// BP path is forced through high-attenuation cells the ISL path overflies.
type HeatmapResult struct {
	// LatMin/LatMax/LonMin/LonMax bound the mapped region.
	LatMin, LatMax, LonMin, LonMax float64
	// StepDeg is the cell size.
	StepDeg float64
	// Rows hold attenuation in dB, row-major from LatMin northward.
	Rows [][]float64
	// BPGroundHops and ISLGroundHops list (lat, lon) of each path's
	// ground-side nodes (endpoints included).
	BPGroundHops, ISLGroundHops [][2]float64
	// BPHopDelayMs gives, per BP ground hop (aligned with BPGroundHops),
	// the one-way propagation delay from the source and to the destination
	// city — where along the route each vulnerable ground bounce sits.
	BPHopDelayMs [][2]float64
}

// RunHeatmap computes the Fig 7 map for the region spanned by the named
// pair's geodesic (with margin), at the first snapshot. The paper uses
// Delhi–Sydney over south-east Asia.
func RunHeatmap(ctx context.Context, s *Sim, srcName, dstName string, stepDeg float64) (res *HeatmapResult, err error) {
	defer safe.RecoverTo(&err)
	if stepDeg <= 0 {
		return nil, fmt.Errorf("core: heatmap step must be positive")
	}
	s, src, dst, err := s.withPair(srcName, dstName)
	if err != nil {
		return nil, err
	}
	a, b := s.Cities[src], s.Cities[dst]
	res = &HeatmapResult{
		LatMin: min(a.Lat, b.Lat) - 5, LatMax: max(a.Lat, b.Lat) + 5,
		LonMin: min(a.Lon, b.Lon) - 5, LonMax: max(a.Lon, b.Lon) + 5,
		StepDeg: stepDeg,
	}

	// The map: 99.5th-percentile total attenuation of a representative
	// uplink (40° elevation) from each cell.
	for lat := res.LatMin; lat <= res.LatMax; lat += stepDeg {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var row []float64
		for lon := res.LonMin; lon <= res.LonMax; lon += stepDeg {
			aDB, err := itur.TotalAttenuation(itur.LinkParams{
				LatDeg: lat, LonDeg: lon, ElevationDeg: 40,
				FreqGHz: KuBand.UpGHz, Pol: itur.PolCircular,
			}, 0.5)
			if err != nil {
				return nil, err
			}
			row = append(row, aDB)
		}
		res.Rows = append(res.Rows, row)
	}

	// The paths at the first snapshot.
	t := s.SnapshotTimes()[0]
	bpNet := s.NetworkAt(t, BP)
	if p, ok := bpNet.ShortestPath(bpNet.CityNode(src), bpNet.CityNode(dst)); ok {
		res.BPGroundHops = groundHops(bpNet, p)
		res.BPHopDelayMs = hopDelays(bpNet, p)
	}
	hyNet := s.NetworkAt(t, Hybrid)
	isl, err := pairPaths(ctx, graph.View{N: hyNet}, []Pair{{Src: src, Dst: dst}}, nil, hyNet.SatTransit)
	if err != nil {
		return nil, err
	}
	res.ISLGroundHops = groundHops(hyNet, isl[0]) // nil when unroutable
	if res.BPGroundHops == nil && res.ISLGroundHops == nil {
		return nil, fmt.Errorf("core: %s–%s unroutable at the first snapshot", srcName, dstName)
	}
	return res, nil
}

func groundHops(n *graph.Network, p graph.Path) [][2]float64 {
	var out [][2]float64
	for _, v := range p.Nodes {
		if n.IsGroundSide(v) {
			ll := geo.FromECEF(n.Pos[v])
			out = append(out, [2]float64{ll.Lat, ll.Lon})
		}
	}
	return out
}

// hopDelays annotates each ground hop of p with its one-way delay from both
// path endpoints: one search per endpoint, stopped once every hop is settled.
func hopDelays(n *graph.Network, p graph.Path) [][2]float64 {
	var hops []int32
	for _, v := range p.Nodes {
		if n.IsGroundSide(v) {
			hops = append(hops, v)
		}
	}
	out := make([][2]float64, len(hops))
	st := graph.AcquireSearch()
	defer st.Release()
	for e, src := range []int32{p.Nodes[0], p.Nodes[len(p.Nodes)-1]} {
		n.Search(st, graph.SearchSpec{Src: src, Target: graph.NoTarget, Targets: hops})
		for i, v := range hops {
			out[i][e] = st.Dist(v)
		}
	}
	return out
}

// MaxAlongBP returns the worst map attenuation at the BP path's ground hops
// versus at the two endpoints — the Fig 7 story in two numbers.
func (r *HeatmapResult) MaxAlongBP() (worstHopDB, worstEndpointDB float64) {
	at := func(lat, lon float64) float64 {
		ri := int((lat - r.LatMin) / r.StepDeg)
		ci := int((lon - r.LonMin) / r.StepDeg)
		if ri < 0 || ri >= len(r.Rows) || ci < 0 || ci >= len(r.Rows[0]) {
			return 0
		}
		return r.Rows[ri][ci]
	}
	for i, hop := range r.BPGroundHops {
		a := at(hop[0], hop[1])
		if i == 0 || i == len(r.BPGroundHops)-1 {
			if a > worstEndpointDB {
				worstEndpointDB = a
			}
			continue
		}
		if a > worstHopDB {
			worstHopDB = a
		}
	}
	return worstHopDB, worstEndpointDB
}

// WriteHeatmapReport renders a coarse ASCII map with the BP ground hops
// overlaid, plus the numeric summary.
func WriteHeatmapReport(w io.Writer, r *HeatmapResult) {
	// Bucket attenuation into glyphs.
	glyph := func(a float64) byte {
		switch {
		case a < 2:
			return '.'
		case a < 3:
			return '-'
		case a < 4:
			return '+'
		case a < 5:
			return '*'
		default:
			return '#'
		}
	}
	hop := map[[2]int]bool{}
	for _, h := range r.BPGroundHops {
		hop[[2]int{int((h[0] - r.LatMin) / r.StepDeg), int((h[1] - r.LonMin) / r.StepDeg)}] = true
	}
	fmt.Fprintf(w, "fig7 heatmap (99.5th-pct uplink attenuation; . <2dB, - <3, + <4, * <5, # ≥5; o = BP ground hop):\n")
	for ri := len(r.Rows) - 1; ri >= 0; ri-- { // north at the top
		line := make([]byte, len(r.Rows[ri]))
		for ci, a := range r.Rows[ri] {
			if hop[[2]int{ri, ci}] {
				line[ci] = 'o'
			} else {
				line[ci] = glyph(a)
			}
		}
		fmt.Fprintf(w, "  %s\n", line)
	}
	worstHop, worstEnd := r.MaxAlongBP()
	fmt.Fprintf(w, "fig7 worst BP intermediate-hop cell: %.1f dB vs worst endpoint cell: %.1f dB\n",
		worstHop, worstEnd)
	fmt.Fprintf(w, "fig7 BP ground hops: %d, ISL ground hops: %d (endpoints only)\n",
		len(r.BPGroundHops), len(r.ISLGroundHops))
	if len(r.BPHopDelayMs) > 2 {
		fmt.Fprintf(w, "fig7 BP intermediate hops (one-way ms from src → to dst):")
		for _, hd := range r.BPHopDelayMs[1 : len(r.BPHopDelayMs)-1] {
			fmt.Fprintf(w, " %.1f→%.1f", hd[0], hd[1])
		}
		fmt.Fprintln(w)
	}
}
