package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// ChurnModeStats is one mode's route-stability picture over the window.
// Rates are per pair per minute of simulated time, averaged over the pairs
// reachable at every evaluated instant.
type ChurnModeStats struct {
	// PairsUsed counts pairs reachable at every instant in this mode.
	PairsUsed int `json:"pairsUsed"`
	// RouteChangesPerMin is how often a pair's shortest path changes at all
	// (any node differs — satellite handovers included, unlike pathchurn's
	// ground-sequence view).
	RouteChangesPerMin float64 `json:"routeChangesPerMin"`
	// UplinkHandoversPerMin / DownlinkHandoversPerMin count changes of the
	// first satellite after the source and the last before the destination.
	UplinkHandoversPerMin   float64 `json:"uplinkHandoversPerMin"`
	DownlinkHandoversPerMin float64 `json:"downlinkHandoversPerMin"`
}

// ChurnResult is the seconds-scale link- and route-dynamics report: GSL edge
// turnover straight from the advancer's delta log, and per-mode route-change
// and handover rates.
type ChurnResult struct {
	Start  time.Time     `json:"start"`
	Step   time.Duration `json:"step"`
	Window time.Duration `json:"window"`
	// Steps is the number of evaluated transitions.
	Steps int `json:"steps"`
	// GSLAppearPerStep / GSLVanishPerStep are constellation-wide GSL edge
	// births/deaths per step, from the BP walker's delta log (GSL edges are
	// identical across modes; ISLs never churn under +Grid).
	GSLAppearPerStep float64 `json:"gslAppearPerStep"`
	GSLVanishPerStep float64 `json:"gslVanishPerStep"`
	// FullRebuilds counts steps where a walker fell back to a full rebuild
	// (no delta recorded for those steps).
	FullRebuilds int                     `json:"fullRebuilds"`
	Modes        map[Mode]ChurnModeStats `json:"modes"`
}

// RunChurn measures link and route churn at seconds-scale resolution under
// both connectivity modes, over a.ChurnWindow from the simulation epoch in
// steps of a.ChurnStep — resolution the 15-minute snapshot grid cannot see.
// It walks the time axis with the incremental advancer: Window/Step+1
// instants per mode, each a per-step delta rather than a full build.
// Deterministic: the same sim and arguments always produce the same result.
func RunChurn(ctx context.Context, s *Sim, a Args) (res *ChurnResult, err error) {
	defer safe.RecoverTo(&err)
	steps, err := churnSteps(a.ChurnStep, a.ChurnWindow)
	if err != nil {
		return nil, err
	}
	res = &ChurnResult{
		Start: geo.Epoch, Step: a.ChurnStep, Window: a.ChurnWindow,
		Steps: steps, Modes: map[Mode]ChurnModeStats{},
	}
	perMin := float64(time.Minute) / float64(a.ChurnStep)

	prog := telemetry.NewProgress(Progress, "churn", 2*(steps+1))
	defer prog.Finish()
	for _, mode := range []Mode{BP, Hybrid} {
		c, err := s.churnWalk(ctx, s.NewWalker(mode), geo.Epoch, a.ChurnStep, steps, prog)
		if err != nil {
			return nil, err
		}
		if c.used == 0 {
			return nil, fmt.Errorf("core: no pair reachable across the churn window under %s", mode)
		}
		res.FullRebuilds += c.fullRebuilds
		norm := float64(c.used) * float64(steps)
		res.Modes[mode] = ChurnModeStats{
			PairsUsed:               c.used,
			RouteChangesPerMin:      float64(c.routes) / norm * perMin,
			UplinkHandoversPerMin:   float64(c.ups) / norm * perMin,
			DownlinkHandoversPerMin: float64(c.downs) / norm * perMin,
		}
		if mode == BP {
			res.GSLAppearPerStep = float64(c.appeared) / float64(steps)
			res.GSLVanishPerStep = float64(c.vanished) / float64(steps)
		}
	}
	return res, nil
}

// churnSteps is the number of step-long transitions in a churn window: an
// error unless step is positive and window holds at least one step.
func churnSteps(step, window time.Duration) (int, error) {
	if step <= 0 {
		return 0, fmt.Errorf("core: churn step %v is not positive", step)
	}
	steps := int(window / step)
	if steps < 1 {
		return 0, fmt.Errorf("core: churn window %v shorter than step %v", window, step)
	}
	return steps, nil
}

// churnCounts is what one seconds-scale walk observed: over the used pairs
// (routable at every instant), route changes and first/last-hop handovers
// between adjacent instants; the cursor's rebuild fallbacks; and the GSL
// births and deaths of its incremental steps (a fallback records no delta).
type churnCounts struct {
	used, routes, ups, downs         int
	fullRebuilds, appeared, vanished int
}

// churnWalk steps w through start, start+step, …, start+steps·step and
// counts churn between adjacent instants — the one consumer loop of the
// seconds-scale cursor, shared by RunChurn and the topo sweep's churn window.
func (s *Sim) churnWalk(ctx context.Context, w *Walker, start time.Time, step time.Duration,
	steps int, prog *telemetry.Progress) (c churnCounts, err error) {
	nPairs := len(s.Pairs)
	prevSig := make([]uint64, nPairs)
	prevUp := make([]int32, nPairs)
	prevDown := make([]int32, nPairs)
	valid := make([]bool, nPairs)
	for i := range valid {
		valid[i] = true
	}
	for si := 0; si <= steps; si++ {
		if err := ctx.Err(); err != nil {
			return c, err
		}
		n := w.At(start.Add(time.Duration(si) * step))
		if d := w.LastDelta(); d != nil {
			if d.FullRebuild {
				c.fullRebuilds++
			} else {
				c.appeared += len(d.Added)
				c.vanished += len(d.Removed)
			}
		}
		for pi, pair := range s.Pairs {
			if !valid[pi] {
				continue
			}
			p, ok := n.ShortestPath(n.CityNode(pair.Src), n.CityNode(pair.Dst))
			if !ok || len(p.Nodes) < 3 {
				valid[pi] = false
				continue
			}
			sig := pathSignature(p)
			up, down := p.Nodes[1], p.Nodes[len(p.Nodes)-2]
			if si > 0 {
				if sig != prevSig[pi] {
					c.routes++
				}
				if up != prevUp[pi] {
					c.ups++
				}
				if down != prevDown[pi] {
					c.downs++
				}
			}
			prevSig[pi], prevUp[pi], prevDown[pi] = sig, up, down
		}
		prog.Step(1)
	}
	for _, v := range valid {
		if v {
			c.used++
		}
	}
	return c, nil
}

// pathSignature hashes a path's full node sequence (FNV-1a). Node indices
// are stable for satellites and static terminals across advances, so equal
// signatures at adjacent instants mean the same route.
func pathSignature(p graph.Path) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p.Nodes {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// WriteChurnReport renders the seconds-scale churn comparison.
func WriteChurnReport(w io.Writer, r *ChurnResult) {
	fmt.Fprintf(w, "churn window=%v step=%v steps=%d rebuild-fallbacks=%d\n",
		r.Window, r.Step, r.Steps, r.FullRebuilds)
	fmt.Fprintf(w, "churn GSL edges: +%.1f/-%.1f per step (constellation-wide)\n",
		r.GSLAppearPerStep, r.GSLVanishPerStep)
	for _, m := range []Mode{BP, Hybrid} {
		st := r.Modes[m]
		fmt.Fprintf(w, "churn %-6s: %.2f route changes, %.2f uplink + %.2f downlink handovers per pair-minute (pairs=%d)\n",
			m, st.RouteChangesPerMin, st.UplinkHandoversPerMin, st.DownlinkHandoversPerMin, st.PairsUsed)
	}
}
