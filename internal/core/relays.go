package core

import (
	"context"
	"fmt"
	"io"
	"math"

	"leosim/internal/stats"
)

// RelayPoint is one cell of the relay-density sweep: how BP fares as the
// transit-relay grid coarsens. The paper's premise (following [21], which
// argued dense ground relays could substitute for ISLs) is that its 0.5°
// grid is "the highest density of GTs tested in prior work"; this sweep
// shows what each step away from that density costs BP — and that hybrid
// barely notices.
type RelayPoint struct {
	SpacingDeg float64
	// MedianMinRTT per mode (ms), over pairs reachable at every snapshot.
	MedianMinRTTBP, MedianMinRTTHybrid float64
	// ReachableFracBP is the fraction of sampled pairs BP can serve at
	// every snapshot (hybrid serves essentially all).
	ReachableFracBP float64
	// DisconnectedSatFrac is the §5 stranded-satellite fraction under BP.
	DisconnectedSatFrac float64
}

// RunRelayDensitySweep evaluates latency and reachability across relay grid
// spacings. Each spacing is a sim of its own (slow: one sim per point): s's
// choice, scale and options with the relay grid respaced.
func RunRelayDensitySweep(ctx context.Context, s *Sim, spacings []float64) ([]RelayPoint, error) {
	// Each spacing is a sim of its own, so its sweeps run unjournaled: under
	// the caller's journal every spacing would replay the latency and
	// disconnected steps the first one recorded under the same names.
	ctx = WithJournal(ctx, nil)
	var out []RelayPoint
	for _, sp := range spacings {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if sp <= 0 {
			return nil, fmt.Errorf("core: relay spacing must be positive, got %v", sp)
		}
		scale := s.Scale
		scale.Name = fmt.Sprintf("%s-relay%.1f", s.Scale.Name, sp)
		scale.RelaySpacingDeg = sp
		rs, err := NewSim(s.Choice, scale, s.opts...)
		if err != nil {
			return nil, err
		}
		lat, err := RunLatency(ctx, rs)
		if err != nil {
			// All pairs unreachable under BP at this sparsity still
			// yields a data point: RunLatency fails only when NO pair is
			// reachable in every snapshot under BOTH modes, which a
			// functioning hybrid prevents; treat other errors as real.
			return nil, fmt.Errorf("spacing %v: %w", sp, err)
		}
		disc, err := RunDisconnected(ctx, rs)
		if err != nil {
			return nil, err
		}
		pt := RelayPoint{
			SpacingDeg:          sp,
			MedianMinRTTBP:      stats.Percentile(lat.MinRTT[BP], 50),
			MedianMinRTTHybrid:  stats.Percentile(lat.MinRTT[Hybrid], 50),
			ReachableFracBP:     float64(lat.ReachablePairs) / float64(len(rs.Pairs)),
			DisconnectedSatFrac: disc.Mean,
		}
		if math.IsNaN(pt.MedianMinRTTBP) {
			pt.MedianMinRTTBP = math.Inf(1)
		}
		out = append(out, pt)
	}
	return out, nil
}

// WriteRelayReport renders the sweep.
func WriteRelayReport(w io.Writer, points []RelayPoint) {
	fmt.Fprintf(w, "relays spacing  bp-medRTT  hybrid-medRTT  bp-reach  bp-stranded\n")
	for _, p := range points {
		fmt.Fprintf(w, "relays %5.1f°  %8.1fms  %12.1fms  %7.0f%%  %10.0f%%\n",
			p.SpacingDeg, p.MedianMinRTTBP, p.MedianMinRTTHybrid,
			p.ReachableFracBP*100, p.DisconnectedSatFrac*100)
	}
}
