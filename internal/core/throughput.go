package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"leosim/internal/flow"
	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// ThroughputResult holds one §5 data point: the max-min fair aggregate
// throughput of the 5,000-pair traffic matrix.
type ThroughputResult struct {
	Mode Mode `json:"mode"`
	K    int  `json:"k"`
	// AggregateGbps is the sum of all flow allocations (Fig 4's bars).
	AggregateGbps float64 `json:"aggregateGbps"`
	// PathsFound is the total number of sub-flows that got a path;
	// PathsMissing counts pair-slots with no (further) disjoint path.
	PathsFound   int `json:"pathsFound"`
	PathsMissing int `json:"pathsMissing"`
}

// RunThroughput computes aggregate throughput for the given mode and
// multipath degree k at snapshot time t, routing each pair over its k
// edge-disjoint shortest paths and applying max-min fair allocation
// (the floodns-style routed-flow model of §5).
func RunThroughput(ctx context.Context, s *Sim, mode Mode, k int, t time.Time) (res *ThroughputResult, err error) {
	defer safe.RecoverTo(&err)
	if k < 1 {
		return nil, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	n := s.NetworkAtCtx(ctx, t, mode)
	res, err = throughputOn(ctx, s, n, k)
	if err != nil {
		return nil, err
	}
	res.Mode = mode
	return res, nil
}

// throughputOn runs the routed-flow throughput model on an already-built
// network. RunResilience uses it directly to evaluate fault-masked
// snapshots that never enter the sim's cache.
func throughputOn(ctx context.Context, s *Sim, n *graph.Network, k int) (*ThroughputResult, error) {
	pr, paths, err := loadPairFlows(ctx, s, n, k)
	if err != nil {
		return nil, err
	}
	alloc, err := maxMinFair(ctx, pr)
	if err != nil {
		return nil, err
	}
	return &ThroughputResult{
		K:             k,
		AggregateGbps: flow.Sum(alloc),
		PathsFound:    len(paths),
		PathsMissing:  k*len(s.Pairs) - len(paths),
	}, nil
}

// loadPairFlows is the routed-flow model of §5 up to the solve: every pair's
// k edge-disjoint shortest paths on n, each one flow of a fresh allocation
// problem. paths lists them in flow order, so a solve's alloc[i] is paths[i]'s.
func loadPairFlows(ctx context.Context, s *Sim, n *graph.Network, k int) (pr *flow.NetworkProblem, paths []graph.Path, err error) {
	perPair, err := computePairPaths(ctx, s, n, k)
	if err != nil {
		return nil, nil, err
	}
	return pairFlows(s, n, perPair, k)
}

// pairFlows is loadPairFlows over each pair's first k paths of perPair.
func pairFlows(s *Sim, n *graph.Network, perPair [][]graph.Path, k int) (pr *flow.NetworkProblem, paths []graph.Path, err error) {
	pr = flow.NewNetworkProblem(n, s.SatCapGbps)
	for _, pp := range perPair {
		for _, p := range pp[:min(k, len(pp))] {
			if _, err := pr.AddPath(p); err != nil {
				return nil, nil, err
			}
			paths = append(paths, p)
		}
	}
	return pr, paths, nil
}

// maxMinFair solves pr, attributing the allocation to the run's recorder.
func maxMinFair(ctx context.Context, pr *flow.NetworkProblem) ([]float64, error) {
	defer telemetry.RecordSpan(ctx, telemetry.StageMaxMin).End()
	return pr.MaxMinFair()
}

// Progress, when non-nil, receives coarse progress lines from long-running
// experiment phases (the CLI points it at stderr for full-scale runs).
var Progress io.Writer

var progressMu sync.Mutex

func progressf(format string, args ...interface{}) {
	if Progress == nil {
		return
	}
	progressMu.Lock()
	fmt.Fprintf(Progress, format, args...)
	progressMu.Unlock()
}

// computePairPaths finds k edge-disjoint shortest paths per pair, one
// KDisjointPathsFrom per source city in parallel (eachSource).
func computePairPaths(ctx context.Context, s *Sim, n *graph.Network, k int) ([][]graph.Path, error) {
	defer telemetry.RecordSpan(ctx, telemetry.StageKDisjoint).End()
	out := make([][]graph.Path, len(s.Pairs))
	var done atomic.Int64
	err := eachSource(ctx, s.Pairs, func(src int, pis []int) error {
		dsts := make([]int32, len(pis))
		for i, pi := range pis {
			dsts[i] = n.CityNode(s.Pairs[pi].Dst)
		}
		for i, paths := range n.KDisjointPathsFrom(n.CityNode(src), dsts, k) {
			out[pis[i]] = paths
		}
		if d := done.Add(int64(len(pis))); d/1000 > (d-int64(len(pis)))/1000 {
			progressf("  ... %d/%d pairs routed\n", d, len(s.Pairs))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig4Row is one row of the Fig 4 table: a constellation × mode × k cell.
type Fig4Row struct {
	Constellation ConstellationChoice `json:"constellation"`
	Mode          Mode                `json:"mode"`
	K             int                 `json:"k"`
	AggregateGbps float64             `json:"aggregateGbps"`
}

// RunFig4 evaluates the full Fig 4 matrix on this sim's constellation:
// {BP, Hybrid} × {k=1, k=4} at the first snapshot, k=1 from the k=4 sets.
func RunFig4(ctx context.Context, s *Sim) (rows []Fig4Row, err error) {
	defer safe.RecoverTo(&err)
	t := s.SnapshotTimes()[0]
	for _, mode := range []Mode{BP, Hybrid} {
		n := s.NetworkAtCtx(ctx, t, mode)
		perPair, err := computePairPaths(ctx, s, n, 4)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{1, 4} {
			pr, _, err := pairFlows(s, n, perPair, k)
			if err != nil {
				return nil, err
			}
			alloc, err := maxMinFair(ctx, pr)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig4Row{
				Constellation: s.Choice, Mode: mode, K: k,
				AggregateGbps: flow.Sum(alloc),
			})
		}
	}
	return rows, nil
}

// Fig5Point is one point of the Fig 5 sweep: hybrid throughput as ISL
// capacity varies relative to the 20 Gbps GSL capacity.
type Fig5Point struct {
	ISLCapRatio   float64 // ISL capacity / GSL capacity
	AggregateGbps float64
}

// RunFig5 sweeps ISL capacity over ratio×GSL for k=4 on the hybrid network
// (Fig 5), and also returns the BP baseline at k=4. Paths are shortest-delay
// and therefore capacity-independent, so they are computed once and the
// allocation re-run per capacity point.
func RunFig5(ctx context.Context, s *Sim, ratios []float64) (points []Fig5Point, bpGbps float64, err error) {
	defer safe.RecoverTo(&err)
	t := s.SnapshotTimes()[0]
	const k = 4
	bp, err := RunThroughput(ctx, s, BP, k, t)
	if err != nil {
		return nil, 0, err
	}
	pr, _, err := loadPairFlows(ctx, s, s.NetworkAtCtx(ctx, t, Hybrid), k)
	if err != nil {
		return nil, 0, err
	}
	for _, ratio := range ratios {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		pr.SetISLCapacity(graph.GSLCapGbps * ratio)
		alloc, err := maxMinFair(ctx, pr)
		if err != nil {
			return nil, 0, err
		}
		points = append(points, Fig5Point{ISLCapRatio: ratio, AggregateGbps: flow.Sum(alloc)})
	}
	return points, bp.AggregateGbps, nil
}
