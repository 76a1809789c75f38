package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"leosim/internal/safe"
)

// BeamPoint is one cell of the beam-limit sweep: aggregate throughput when
// each satellite can serve at most MaxGSLs terminals simultaneously
// (0 = unlimited, the paper's §2 assumption).
type BeamPoint struct {
	MaxGSLs       int     `json:"maxGslsPerSat"`
	Mode          Mode    `json:"mode"`
	AggregateGbps float64 `json:"aggregateGbps"`
}

// RunBeamSweep quantifies §2's "careful frequency management alleviates
// interference" assumption: throughput (k=4, max-min fair) as the number of
// simultaneous beams per satellite is capped. BP leans on many relay GSLs
// per satellite and degrades first; hybrid needs only first/last hops.
func RunBeamSweep(ctx context.Context, s *Sim, caps []int, t time.Time) (out []BeamPoint, err error) {
	defer safe.RecoverTo(&err)
	for _, beams := range caps {
		if beams < 0 {
			return nil, fmt.Errorf("core: negative beam cap %d", beams)
		}
		// A beam cap changes the scan itself: each cap is a sim of its own,
		// derived so that every other option of s carries over.
		capped, err := s.derive(withBeamCap(beams))
		if err != nil {
			return nil, err
		}
		for _, mode := range []Mode{BP, Hybrid} {
			tp, err := throughputOn(ctx, capped, capped.NetworkAtCtx(ctx, t, mode), 4)
			if err != nil {
				return nil, err
			}
			out = append(out, BeamPoint{
				MaxGSLs: beams, Mode: mode, AggregateGbps: tp.AggregateGbps,
			})
		}
	}
	return out, nil
}

// withBeamCap caps the terminals each satellite serves at once (0 = no cap).
func withBeamCap(beams int) SimOption {
	return func(c *simConfig) { c.beamCap = beams }
}

// WriteBeamReport renders the sweep.
func WriteBeamReport(w io.Writer, points []BeamPoint) {
	get := func(beams int, m Mode) float64 {
		for _, p := range points {
			if p.MaxGSLs == beams && p.Mode == m {
				return p.AggregateGbps
			}
		}
		return 0
	}
	seen := map[int]bool{}
	for _, p := range points {
		if seen[p.MaxGSLs] {
			continue
		}
		seen[p.MaxGSLs] = true
		bp, hy := get(p.MaxGSLs, BP), get(p.MaxGSLs, Hybrid)
		label := fmt.Sprintf("%d", p.MaxGSLs)
		if p.MaxGSLs == 0 {
			label = "∞"
		}
		ratio := 0.0
		if bp > 0 {
			ratio = hy / bp
		}
		fmt.Fprintf(w, "beams %3s per sat: bp %7.0f Gbps, hybrid %7.0f Gbps (%.2fx)\n",
			label, bp, hy, ratio)
	}
}
