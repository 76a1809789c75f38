package core

import (
	"context"
	"math"
	"strings"
	"time"

	"leosim/internal/graph"
	"leosim/internal/safe"
)

// HopTrace describes one snapshot's path between a city pair.
type HopTrace struct {
	Time time.Time `json:"time"`
	// RTTMs is +Inf (null on the wire) when the pair is unreachable.
	RTTMs Float `json:"rttMs"`
	Hops  int   `json:"hops"`
	// AircraftHops counts intermediate aircraft relays; RelayHops counts
	// grid relays; CityHops counts intermediate city GTs.
	AircraftHops int `json:"aircraftHops"`
	RelayHops    int `json:"relayHops"`
	CityHops     int `json:"cityHops"`
	// Route is a compact rendering of the hop sequence.
	Route string `json:"route,omitempty"`
	// Reachable is false when the pair was disconnected at this snapshot.
	Reachable bool `json:"reachable"`
}

// PathTraceResult is the Fig 3 output: the BP path between one city pair
// across the day, showing how it flaps with aircraft availability.
type PathTraceResult struct {
	SrcCity, DstCity string
	Mode             Mode
	Traces           []HopTrace
}

// RunPathTrace traces the path between two named cities across the day under
// the given mode (§4 Fig 3 uses Maceió→Durban on BP). Cities outside s's set
// are added to a private derivation of s (WithCities).
func RunPathTrace(ctx context.Context, s *Sim, srcName, dstName string, mode Mode) (res *PathTraceResult, err error) {
	defer safe.RecoverTo(&err)
	s, src, dst, err := s.withPair(srcName, dstName)
	if err != nil {
		return nil, err
	}
	res = &PathTraceResult{SrcCity: srcName, DstCity: dstName, Mode: mode}
	for _, t := range s.SnapshotTimes() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := s.NetworkAtCtx(ctx, t, mode)
		p, okPath := n.ShortestPath(n.CityNode(src), n.CityNode(dst))
		tr := HopTrace{Time: t, RTTMs: Float(math.Inf(1)), Reachable: okPath}
		if okPath {
			q := PathQueryOf(n, p)
			tr.RTTMs = Float(q.RTTMs)
			tr.Hops = q.Hops
			tr.AircraftHops, tr.RelayHops, tr.CityHops = q.AircraftHops, q.RelayHops, q.CityHops
			tr.Route = renderRoute(n, p)
		}
		res.Traces = append(res.Traces, tr)
	}
	return res, nil
}

func renderRoute(n *graph.Network, p graph.Path) string {
	var b strings.Builder
	for i, node := range p.Nodes {
		if i > 0 {
			b.WriteString("→")
		}
		switch n.Kind[node] {
		case graph.NodeSatellite:
			b.WriteString("s")
		case graph.NodeAircraft:
			b.WriteString("✈")
		case graph.NodeRelay:
			b.WriteString("r")
		case graph.NodeCity:
			b.WriteString("C")
		}
	}
	return b.String()
}

// RTTInflationMs returns max−min RTT across reachable snapshots (Fig 3
// reports ≈100 ms for Maceió–Durban under BP).
func (r *PathTraceResult) RTTInflationMs() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, tr := range r.Traces {
		if !tr.Reachable {
			continue
		}
		lo = math.Min(lo, float64(tr.RTTMs))
		hi = math.Max(hi, float64(tr.RTTMs))
	}
	if math.IsInf(lo, 1) {
		return math.Inf(1)
	}
	return hi - lo
}

// UsesAircraftEver reports whether any snapshot's path transits an aircraft.
func (r *PathTraceResult) UsesAircraftEver() bool {
	for _, tr := range r.Traces {
		if tr.AircraftHops > 0 {
			return true
		}
	}
	return false
}
