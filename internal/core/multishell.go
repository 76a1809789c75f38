package core

import (
	"context"
	"fmt"
	"math"

	"leosim/internal/constellation"
	"leosim/internal/safe"
	"leosim/internal/stats"
)

// CrossShellResult is the Fig 10 experiment output: RTTs between one city
// pair on a single inclined shell versus a two-shell constellation where BP
// hops act as "transition points" between shells (no cross-shell ISLs).
type CrossShellResult struct {
	SrcCity, DstCity string
	// SingleShellRTTs and TwoShellRTTs are per-snapshot RTTs (ms);
	// unreachable snapshots are omitted.
	SingleShellRTTs, TwoShellRTTs []float64
}

// RunCrossShell quantifies §8's BP augmentation (Fig 10: Brisbane–Tokyo):
// it compares hybrid-connectivity RTTs on the inclined shell alone against
// a constellation that adds a polar shell, where paths may switch shells
// only through a ground terminal (intra-shell ISLs only — exactly what the
// +Grid generator produces).
func RunCrossShell(ctx context.Context, s *Sim, srcName, dstName string) (res *CrossShellResult, err error) {
	defer safe.RecoverTo(&err)
	s, src, dst, err := s.withPair(srcName, dstName)
	if err != nil {
		return nil, err
	}
	// The two-shell sim differs from this one in the extra shell alone: same
	// options, same cities at the same indices.
	two, err := s.derive(WithExtraShells(constellation.PolarShell()))
	if err != nil {
		return nil, err
	}
	res = &CrossShellResult{SrcCity: srcName, DstCity: dstName}
	for _, t := range s.SnapshotTimes() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		one := s.NetworkAt(t, Hybrid)
		if p, ok := one.ShortestPath(one.CityNode(src), one.CityNode(dst)); ok {
			res.SingleShellRTTs = append(res.SingleShellRTTs, p.RTTMs())
		}
		tw := two.NetworkAt(t, Hybrid)
		if p, ok := tw.ShortestPath(tw.CityNode(src), tw.CityNode(dst)); ok {
			res.TwoShellRTTs = append(res.TwoShellRTTs, p.RTTMs())
		}
	}
	if len(res.SingleShellRTTs) == 0 || len(res.TwoShellRTTs) == 0 {
		return nil, fmt.Errorf("core: %s–%s unreachable in one of the configurations", srcName, dstName)
	}
	return res, nil
}

// Improvement summarizes the latency benefit of the second shell: mean RTT
// reduction in ms and as a fraction.
func (r *CrossShellResult) Improvement() (meanMs, frac float64) {
	m1 := stats.Mean(r.SingleShellRTTs)
	m2 := stats.Mean(r.TwoShellRTTs)
	if math.IsNaN(m1) || math.IsNaN(m2) || m1 == 0 {
		return 0, 0
	}
	return m1 - m2, (m1 - m2) / m1
}
