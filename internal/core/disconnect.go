package core

import (
	"context"
	"fmt"
	"math"

	"leosim/internal/graph"
	"leosim/internal/safe"
)

// DisconnectResult is the §5 satellite-utilization statistic: the fraction
// of satellites entirely disconnected from the rest of the network under BP
// connectivity, across the day (paper: varies between 25.1% and 31.5% for
// Starlink).
type DisconnectResult struct {
	// FractionPerSnapshot is the disconnected-satellite fraction at each
	// snapshot.
	FractionPerSnapshot []float64
	Min, Max, Mean      float64
	// Partial marks a result cut short by cancellation.
	Partial bool
}

// RunDisconnected measures, per snapshot, how many satellites cannot reach
// the giant (city-containing) component of the BP network — i.e. satellites
// with no ground terminal in view, useless for networking without ISLs.
// Cancellation after at least one snapshot returns the completed prefix
// with Partial set alongside ctx.Err().
func RunDisconnected(ctx context.Context, s *Sim) (res *DisconnectResult, err error) {
	defer safe.RecoverTo(&err)
	times := s.SnapshotTimes()
	if len(times) == 0 {
		return nil, fmt.Errorf("core: no snapshots to simulate (NumSnapshots = %d)",
			s.Scale.NumSnapshots)
	}
	res = &DisconnectResult{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	done, err := runSteps(ctx, "disconnected", len(times),
		func(i int) (float64, error) {
			return disconnectedSatFraction(s.NetworkAtCtx(ctx, times[i], BP)), nil
		},
		func(_ int, frac float64) error {
			res.FractionPerSnapshot = append(res.FractionPerSnapshot, frac)
			res.Min = math.Min(res.Min, frac)
			res.Max = math.Max(res.Max, frac)
			sum += frac
			return nil
		})
	if err != nil {
		return nil, err
	}
	if done == 0 {
		return nil, ctx.Err()
	}
	res.Mean = sum / float64(done)
	if res.Partial = done < len(times); res.Partial {
		return res, ctx.Err()
	}
	return res, nil
}

func disconnectedSatFraction(n *graph.Network) float64 {
	stranded, _ := strandedSats(graph.View{N: n})
	return float64(stranded) / float64(n.NumSat)
}

// strandedSats counts the satellites outside v's main component and returns
// the component count alongside. The main component is the one holding the
// most cities; on a tie the lowest component ID wins, and Components numbers
// them in node order, so the answer is a function of v alone.
func strandedSats(v graph.View) (stranded, components int) {
	n := v.N
	comp, count := v.Components()
	cities := make([]int, count)
	for i := 0; i < n.NumCity; i++ {
		cities[comp[n.CityNode(i)]]++
	}
	main, best := int32(-1), 0
	for c, cnt := range cities {
		if cnt > best {
			main, best = int32(c), cnt
		}
	}
	for i := 0; i < n.NumSat; i++ {
		if comp[i] != main {
			stranded++
		}
	}
	return stranded, count
}
