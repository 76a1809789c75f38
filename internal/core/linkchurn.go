package core

import (
	"context"
	"fmt"
	"io"
	"slices"
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
// turnover between adjacent instants, and per-mode route-change and handover
// rates.
type ChurnResult struct {
	Start  time.Time     `json:"start"`
	Step   time.Duration `json:"step"`
	Window time.Duration `json:"window"`
	// Steps is the number of evaluated transitions.
	Steps int `json:"steps"`
	// GSLAppearPerStep / GSLVanishPerStep are constellation-wide GSL edge
	// births/deaths per step under BP (GSL edges are identical across modes;
	// a cursor's lasers never churn). A step across which the over-water
	// aircraft set changes is not diffed — aircraft node indices shift there
	// — and counts nothing, though the averages still divide by Steps.
	GSLAppearPerStep float64                 `json:"gslAppearPerStep"`
	GSLVanishPerStep float64                 `json:"gslVanishPerStep"`
	Modes            map[Mode]ChurnModeStats `json:"modes"`
}

// RunChurn measures link and route churn at seconds-scale resolution under
// both connectivity modes, over a.ChurnWindow from the simulation epoch in
// steps of a.ChurnStep — resolution the 15-minute snapshot grid cannot see.
// It walks the time axis with a Walker: Window/Step+1 instants per mode.
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
// between adjacent instants, and the GSL births and deaths between them.
type churnCounts struct {
	used, routes, ups, downs int
	appeared, vanished       int
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
	var prev *graph.Network
	for si := 0; si <= steps; si++ {
		if err := ctx.Err(); err != nil {
			return c, err
		}
		n := w.At(start.Add(time.Duration(si) * step))
		if prev != nil {
			if up, down, ok := gslChurn(prev, n); ok {
				c.appeared += up
				c.vanished += down
			}
		}
		prev = n
		paths, err := pairPaths(ctx, graph.View{N: n}, s.Pairs, valid, false)
		if err != nil {
			return c, err
		}
		for pi, p := range paths {
			if !valid[pi] {
				continue
			}
			if len(p.Nodes) < 3 {
				valid[pi] = false
				continue
			}
			sig := pathSignature(n, p)
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

// gslChurn merge-diffs the sorted (terminal, satellite) GSL lists of two
// instants: appeared counts cur's GSLs absent from prev, vanished prev's
// absent from cur. It diffs nothing (ok false) when the over-water aircraft
// set differs between them, since aircraft node indices shift there.
func gslChurn(prev, cur *graph.Network) (appeared, vanished int, ok bool) {
	if !slices.Equal(aircraftNames(prev), aircraftNames(cur)) {
		return 0, 0, false
	}
	a, b := gslKeys(prev), gslKeys(cur)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			vanished++
			i++
		case i == len(a) || b[j] < a[i]:
			appeared++
			j++
		default:
			i++
			j++
		}
	}
	return appeared, vanished, true
}

// aircraftNames returns n's aircraft node names, in node order.
func aircraftNames(n *graph.Network) []string {
	return n.Name[n.NumSat+n.NumCity+n.NumRelay:]
}

// gslKeys returns n's GSLs as ascending (terminal, satellite) keys.
func gslKeys(n *graph.Network) []uint64 {
	var keys []uint64
	for _, l := range n.Links {
		if l.Kind == graph.LinkGSL {
			keys = append(keys, uint64(uint32(l.A))<<32|uint64(uint32(l.B)))
		}
	}
	slices.Sort(keys)
	return keys
}

// pathSignature hashes a path's full node sequence (FNV-1a), so equal
// signatures at adjacent instants mean the same route. Satellites, cities and
// relays keep their node indices across instants; aircraft do not — an
// index shifts whenever the over-water set changes — so an aircraft hop
// hashes its name, each byte tagged above the 32-bit index range.
func pathSignature(n *graph.Network, p graph.Path) uint64 {
	const prime = 1099511628211
	firstAircraft := int32(n.NumSat + n.NumCity + n.NumRelay)
	h := uint64(14695981039346656037)
	for _, v := range p.Nodes {
		if v < firstAircraft {
			h ^= uint64(uint32(v))
			h *= prime
			continue
		}
		for _, c := range []byte(n.Name[v]) {
			h ^= 1<<32 | uint64(c)
			h *= prime
		}
	}
	return h
}

// WriteChurnReport renders the seconds-scale churn comparison.
func WriteChurnReport(w io.Writer, r *ChurnResult) {
	fmt.Fprintf(w, "churn window=%v step=%v steps=%d\n", r.Window, r.Step, r.Steps)
	fmt.Fprintf(w, "churn GSL edges: +%.1f/-%.1f per step (constellation-wide)\n",
		r.GSLAppearPerStep, r.GSLVanishPerStep)
	for _, m := range []Mode{BP, Hybrid} {
		st := r.Modes[m]
		fmt.Fprintf(w, "churn %-6s: %.2f route changes, %.2f uplink + %.2f downlink handovers per pair-minute (pairs=%d)\n",
			m, st.RouteChangesPerMin, st.UplinkHandoversPerMin, st.DownlinkHandoversPerMin, st.PairsUsed)
	}
}
