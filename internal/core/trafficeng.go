package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"leosim/internal/flow"
	"leosim/internal/graph"
	"leosim/internal/safe"
)

// TEResult compares shortest-delay multipath routing (the paper's scheme)
// against the minimum-maximum-utilization routing §5 leaves to future work,
// on the same snapshot and traffic matrix.
type TEResult struct {
	Mode Mode `json:"mode"`
	K    int  `json:"k"`
	// ShortestGbps and TEGbps are the max-min aggregate throughputs.
	ShortestGbps float64 `json:"shortestGbps"`
	TEGbps       float64 `json:"teGbps"`
	// ShortestDelayMs and TEDelayMs are the mean one-way path delays —
	// the latency price of traffic engineering.
	ShortestDelayMs float64 `json:"shortestDelayMs"`
	TEDelayMs       float64 `json:"teDelayMs"`
	// TEMaxUtil is the nominal max link utilization after TE routing.
	TEMaxUtil float64 `json:"teMaxUtil"`
}

// ThroughputGainFrac returns the relative throughput improvement of TE.
func (r *TEResult) ThroughputGainFrac() float64 {
	if r.ShortestGbps <= 0 {
		return 0
	}
	return (r.TEGbps - r.ShortestGbps) / r.ShortestGbps
}

// RunTrafficEngineering evaluates the §5 prediction: congestion-aware
// routing raises aggregate throughput over shortest-delay multipath at the
// cost of longer paths.
func RunTrafficEngineering(ctx context.Context, s *Sim, mode Mode, k int, t time.Time) (res *TEResult, err error) {
	defer safe.RecoverTo(&err)
	if k < 1 {
		return nil, fmt.Errorf("core: traffic engineering needs k ≥ 1, got %d", k)
	}
	n := s.NetworkAtCtx(ctx, t, mode)
	res = &TEResult{Mode: mode, K: k}

	// Baseline: shortest-delay k edge-disjoint multipath.
	basePr, basePaths, err := loadPairFlows(ctx, s, n, k)
	if err != nil {
		return nil, err
	}
	var delaySum float64
	for _, p := range basePaths {
		delaySum += p.OneWayMs
	}
	alloc, err := maxMinFair(ctx, basePr)
	if err != nil {
		return nil, err
	}
	res.ShortestGbps = flow.Sum(alloc)
	if len(basePaths) > 0 {
		res.ShortestDelayMs = delaySum / float64(len(basePaths))
	}

	// TE: congestion-aware routing over the same demands.
	tePaths, load := minMaxUtilization(n, s.Pairs, k)
	tePr := flow.NewNetworkProblem(n, s.SatCapGbps)
	var teDelaySum float64
	var teCount int
	for _, paths := range tePaths {
		for _, p := range paths {
			if _, err := tePr.AddPath(p); err != nil {
				return nil, err
			}
			teDelaySum += p.OneWayMs
			teCount++
		}
	}
	teAlloc, err := maxMinFair(ctx, tePr)
	if err != nil {
		return nil, err
	}
	res.TEGbps = flow.Sum(teAlloc)
	res.TEDelayMs = math.NaN()
	if teCount > 0 {
		res.TEDelayMs = teDelaySum / float64(teCount)
	}
	for li, l := range n.Links {
		if l.CapGbps > 0 {
			res.TEMaxUtil = math.Max(res.TEMaxUtil, load[li]/l.CapGbps)
		}
	}
	return res, nil
}

// The min-max-utilization router's parameters mirror the paper's setup.
const (
	// teAlpha scales the congestion penalty: a link's routing cost is
	// delay · (1 + teAlpha·utilization²).
	teAlpha = 8
	// teUnitGbps is the nominal rate each sub-flow contributes to link
	// utilization while routing (the allocator later decides true rates).
	teUnitGbps = 1
)

// minMaxUtilization is the minimum-maximum-utilization scheme §5 flags as
// future work ("A routing scheme that minimizes the maximum utilization, for
// example, can offer higher throughput, albeit at the cost of increased
// latency"), as a greedy heuristic: pairs are routed in order, one sub-flow
// at a time, over the path minimizing a congestion-aware cost, where each
// link's cost grows with its current utilization. A pair's k sub-flows take
// edge-disjoint paths, as in the paper's baseline scheme, or as many as
// exist. It returns each pair's paths and the nominal load, at teUnitGbps
// per sub-flow, they put on each link.
func minMaxUtilization(n *graph.Network, pairs []Pair, k int) (paths [][]graph.Path, load []float64) {
	load = make([]float64, len(n.Links))
	cost := func(li int32) float64 {
		l := n.Links[li]
		if l.CapGbps <= 0 {
			return math.Inf(1)
		}
		u := load[li] / l.CapGbps
		return l.OneWayMs * (1 + teAlpha*u*u)
	}

	paths = make([][]graph.Path, len(pairs))
	st := graph.AcquireSearch()
	defer st.Release()
	for i, pair := range pairs {
		src, dst := n.CityNode(pair.Src), n.CityNode(pair.Dst)
		st.ClearBans()
		for len(paths[i]) < k {
			// The shared kernel with the congestion-aware cost hook: Dist
			// accumulates cost, extracted paths report true delay.
			n.Search(st, graph.SearchSpec{Src: src, Target: dst, Cost: cost})
			p, ok := st.Path(dst)
			if !ok {
				break
			}
			paths[i] = append(paths[i], p)
			for _, li := range p.Links {
				load[li] += teUnitGbps
				st.BanLink(li)
			}
		}
	}
	return paths, load
}
