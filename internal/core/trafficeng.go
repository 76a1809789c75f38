package core

import (
	"context"
	"time"

	"leosim/internal/flow"
	"leosim/internal/routing"
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
	n := s.NetworkAt(t, mode)
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
	demands := make([]routing.Demand, len(s.Pairs))
	for i, pair := range s.Pairs {
		demands[i] = routing.Demand{
			Src: n.CityNode(pair.Src), Dst: n.CityNode(pair.Dst), K: k,
		}
	}
	asgs, err := routing.MinMaxUtilization(n, demands)
	if err != nil {
		return nil, err
	}
	tePr := flow.NewNetworkProblem(n, s.SatCapGbps)
	for _, asg := range asgs {
		for _, p := range asg.Paths {
			if _, err := tePr.AddPath(p); err != nil {
				return nil, err
			}
		}
	}
	teAlloc, err := maxMinFair(ctx, tePr)
	if err != nil {
		return nil, err
	}
	res.TEGbps = flow.Sum(teAlloc)
	res.TEDelayMs = routing.MeanPathDelayMs(asgs)
	res.TEMaxUtil = routing.MaxUtilization(n, asgs)
	return res, nil
}
