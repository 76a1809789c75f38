package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"leosim/internal/safe"
	"leosim/internal/stats"
)

// UtilizationResult quantifies §5's observation that BP "is unable to
// utilize a large fraction of the satellites for networking at all": the
// distribution of max-min-allocated traffic across satellites under each
// connectivity mode.
type UtilizationResult struct {
	Mode Mode `json:"mode"`
	// PerSatGbps is the traffic carried by each satellite (sum of
	// allocated rates of flows transiting it).
	PerSatGbps []float64 `json:"perSatGbps"`
	// IdleFrac is the fraction of satellites carrying (essentially) no
	// traffic — disconnected ones plus connected-but-unused ones.
	IdleFrac float64 `json:"idleFrac"`
	// Gini is the Gini coefficient of the load distribution (0 = all
	// satellites equally used, →1 = all load on a few).
	Gini float64 `json:"gini"`
	// AggregateGbps is the total allocated throughput (as in Fig 4).
	AggregateGbps float64 `json:"aggregateGbps"`
}

// RunUtilization routes the traffic matrix (k=4 paths, max-min allocation)
// at snapshot t and attributes each flow's rate to every satellite on its
// path.
func RunUtilization(ctx context.Context, s *Sim, mode Mode, t time.Time) (res *UtilizationResult, err error) {
	defer safe.RecoverTo(&err)
	n := s.NetworkAt(t, mode)
	pr, flat, err := loadPairFlows(ctx, s, n, 4)
	if err != nil {
		return nil, err
	}
	alloc, err := maxMinFair(ctx, pr)
	if err != nil {
		return nil, err
	}

	res = &UtilizationResult{Mode: mode, PerSatGbps: make([]float64, n.NumSat)}
	for fi, p := range flat {
		rate := alloc[fi]
		res.AggregateGbps += rate
		for _, node := range p.Nodes {
			if node < int32(n.NumSat) {
				res.PerSatGbps[node] += rate
			}
		}
	}

	idle := 0
	for _, g := range res.PerSatGbps {
		if g < 1e-9 {
			idle++
		}
	}
	res.IdleFrac = float64(idle) / float64(len(res.PerSatGbps))
	res.Gini = gini(res.PerSatGbps)
	return res, nil
}

// gini computes the Gini coefficient of non-negative values.
func gini(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var cum, total float64
	for i, x := range s {
		cum += x * float64(2*(i+1)-len(s)-1)
		total += x
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(len(s)) * total)
}

// WriteUtilizationReport renders the satellite-load comparison.
func WriteUtilizationReport(w io.Writer, results ...*UtilizationResult) {
	for _, r := range results {
		fmt.Fprintf(w, "util %-6s: %4.1f%% satellites idle, Gini %.2f, aggregate %.0f Gbps [%s]\n",
			r.Mode, r.IdleFrac*100, r.Gini, r.AggregateGbps,
			stats.Summarize(r.PerSatGbps))
	}
}
