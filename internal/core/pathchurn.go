package core

import (
	"context"
	"fmt"
	"io"

	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/stats"
)

// PathChurnResult quantifies §4's premise that "end-to-end paths and their
// latencies change continually": the rate at which each pair's shortest path
// changes between consecutive snapshots, per mode. BP paths change for two
// reasons — satellite motion and relay/aircraft availability — and so churn
// harder than hybrid paths, which only track satellite motion.
type PathChurnResult struct {
	// ChangeFrac[mode][i] is the fraction of snapshot transitions at which
	// pair i's path changed (ground-hop sequence differs).
	ChangeFrac map[Mode][]float64
	// PairsUsed counts pairs reachable at every snapshot in both modes.
	PairsUsed int
}

// RunPathChurn traces every pair's shortest path across the day under both
// modes and measures how often the path's relay sequence changes.
func RunPathChurn(ctx context.Context, s *Sim) (res *PathChurnResult, err error) {
	defer safe.RecoverTo(&err)
	times := s.SnapshotTimes()
	if len(times) < 2 {
		return nil, fmt.Errorf("core: path churn needs ≥ 2 snapshots")
	}
	type sig = string
	prev := map[Mode][]sig{
		BP:     make([]sig, len(s.Pairs)),
		Hybrid: make([]sig, len(s.Pairs)),
	}
	changes := map[Mode][]int{
		BP:     make([]int, len(s.Pairs)),
		Hybrid: make([]int, len(s.Pairs)),
	}
	valid := make([]bool, len(s.Pairs))
	for i := range valid {
		valid[i] = true
	}

	for si, t := range times {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, mode := range []Mode{BP, Hybrid} {
			n := s.NetworkAtCtx(ctx, t, mode)
			paths, err := pairPaths(ctx, graph.View{N: n}, s.Pairs, valid, false)
			if err != nil {
				return nil, err
			}
			for pi, p := range paths {
				if !valid[pi] {
					continue
				}
				if len(p.Nodes) == 0 {
					valid[pi] = false
					continue
				}
				sg := groundSignature(n, p)
				if si > 0 && sg != prev[mode][pi] {
					changes[mode][pi]++
				}
				prev[mode][pi] = sg
			}
		}
	}

	res = &PathChurnResult{ChangeFrac: map[Mode][]float64{BP: nil, Hybrid: nil}}
	transitions := float64(len(times) - 1)
	for pi := range s.Pairs {
		if !valid[pi] {
			continue
		}
		res.PairsUsed++
		for _, mode := range []Mode{BP, Hybrid} {
			res.ChangeFrac[mode] = append(res.ChangeFrac[mode],
				float64(changes[mode][pi])/transitions)
		}
	}
	if res.PairsUsed == 0 {
		return nil, fmt.Errorf("core: no pair reachable across all snapshots")
	}
	return res, nil
}

// groundSignature identifies a path by its sequence of ground-side
// intermediate hops (relays, aircraft, transit cities). Satellite handovers
// alone — inevitable in any LEO design — do not count as a path change;
// what §4 and Fig 3 care about is the ground infrastructure the path leans
// on.
func groundSignature(n *graph.Network, p graph.Path) string {
	out := make([]byte, 0, 64)
	for _, v := range p.Nodes[1 : len(p.Nodes)-1] {
		if n.IsGroundSide(v) {
			out = append(out, n.Name[v]...)
			out = append(out, '|')
		}
	}
	return string(out)
}

// MeanChangeFrac returns the mean per-transition change rate per mode.
func (r *PathChurnResult) MeanChangeFrac(m Mode) float64 {
	return stats.Mean(r.ChangeFrac[m])
}

// WritePathChurnReport renders the churn comparison.
func WritePathChurnReport(w io.Writer, r *PathChurnResult) {
	fmt.Fprintf(w, "pathchurn pairs=%d\n", r.PairsUsed)
	for _, m := range []Mode{BP, Hybrid} {
		fmt.Fprintf(w, "pathchurn %-6s: ground-hop sequence changes on %.0f%% of transitions [%s]\n",
			m, r.MeanChangeFrac(m)*100, stats.Summarize(r.ChangeFrac[m]))
	}
}
