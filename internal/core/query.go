package core

import (
	"context"
	"fmt"
	"time"

	"leosim/internal/fault"
	"leosim/internal/graph"
	"leosim/internal/safe"
)

// This file is the snapshot-granular evaluation surface: where the Run*
// experiments sweep a whole simulated day, these entry points answer one
// question about one snapshot, under an optional fault mask, with the
// caller's context propagated all the way into the routing kernel. The
// serving subsystem (internal/server) is built entirely on them.

// FindCity returns the pair-sampling index of the named city, or ok=false
// if it is outside the sim's city set.
func (s *Sim) FindCity(name string) (int, bool) {
	i, ok := s.cityIndex[name]
	return i, ok
}

// withPair returns s.WithCities(srcName, dstName) and the two cities'
// indices in it.
func (s *Sim) withPair(srcName, dstName string) (d *Sim, src, dst int, err error) {
	if d, err = s.WithCities(srcName, dstName); err != nil {
		return nil, 0, 0, err
	}
	src, _ = d.FindCity(srcName)
	dst, _ = d.FindCity(dstName)
	return d, src, dst, nil
}

// CityName returns the name of city i.
func (s *Sim) CityName(i int) string { return s.Cities[i].Name }

// NumCities returns the number of traffic cities in the sim.
func (s *Sim) NumCities() int { return len(s.Cities) }

// BuildNetworkAt returns the snapshot network for mode at time t under an
// optional outage set. Without outages it is NetworkAt's cached healthy
// network: shared with the sim's cache and every other caller, immutable —
// what the server's cache holds for a healthy key. With outages it is that
// network masked and materialized — its nodes shared, its links filtered and
// its capacities scaled: a what-if costs a link filter, not a scan. (A served
// what-if is a view instead, the healthy network and Outages.Cut, and never
// materialized.) Cancellation is honoured at the boundary.
func (s *Sim) BuildNetworkAt(ctx context.Context, t time.Time, mode Mode, outages *fault.Outages) (n *graph.Network, err error) {
	defer safe.RecoverTo(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if mode != BP && mode != Hybrid {
		return nil, fmt.Errorf("core: unknown mode %d", mode)
	}
	return outages.Masked(s.NetworkAtCtx(ctx, t, mode)), nil
}

// PathQuery is the answer to one pair × snapshot path question.
type PathQuery struct {
	// Reachable is false when the pair is disconnected at this snapshot;
	// the remaining fields are then zero.
	Reachable bool    `json:"reachable"`
	RTTMs     float64 `json:"rttMs"`
	OneWayMs  float64 `json:"oneWayMs"`
	Hops      int     `json:"hops"`
	// Route lists the node names along the path, source to destination.
	Route []string `json:"route,omitempty"`
	// AircraftHops/RelayHops/CityHops count intermediate relays by kind.
	AircraftHops int `json:"aircraftHops"`
	RelayHops    int `json:"relayHops"`
	CityHops     int `json:"cityHops"`
}

// PathAt routes city src → city dst over snapshot network n: PathIn over the
// whole of n.
func (s *Sim) PathAt(ctx context.Context, n *graph.Network, src, dst int) (*PathQuery, error) {
	return s.PathIn(ctx, graph.View{N: n}, src, dst)
}

// PathIn routes city src → city dst over a view of a snapshot: its network
// searched with its cut banned, which is the answer PathAt gives on the
// materialized masked network, field for field. The context reaches the
// Dijkstra kernel itself (polled between settle batches), so a cancelled
// request abandons even a single in-flight search.
func (s *Sim) PathIn(ctx context.Context, v graph.View, src, dst int) (*PathQuery, error) {
	if src < 0 || src >= len(s.Cities) || dst < 0 || dst >= len(s.Cities) {
		return nil, fmt.Errorf("core: city index out of range (%d, %d of %d)", src, dst, len(s.Cities))
	}
	n := v.N
	st := graph.AcquireSearch()
	defer st.Release()
	spec := graph.SearchSpec{
		Src:    n.CityNode(src),
		Target: n.CityNode(dst),
		Stop:   func() bool { return ctx.Err() != nil },
	}
	if !v.Search(st, spec) {
		return nil, ctx.Err()
	}
	p, ok := st.Path(n.CityNode(dst))
	if !ok {
		return &PathQuery{}, nil
	}
	return PathQueryOf(n, p), nil
}

// PathQueryOf converts a found path over n into the serving PathQuery
// envelope: RTT, hop count, the named route, and the per-kind relay hop
// breakdown. It is the single classification step behind PathAt and the
// oracle-served batch path endpoint, so both produce identical envelopes
// for identical paths.
func PathQueryOf(n *graph.Network, p graph.Path) *PathQuery {
	q := &PathQuery{
		Reachable: true,
		RTTMs:     p.RTTMs(),
		OneWayMs:  p.OneWayMs,
		Hops:      p.Hops(),
		Route:     make([]string, 0, len(p.Nodes)),
	}
	for i, node := range p.Nodes {
		q.Route = append(q.Route, n.Name[node])
		if i == 0 || i == len(p.Nodes)-1 {
			continue
		}
		switch n.Kind[node] {
		case graph.NodeAircraft:
			q.AircraftHops++
		case graph.NodeRelay:
			q.RelayHops++
		case graph.NodeCity:
			q.CityHops++
		}
	}
	return q
}

// ReachabilityQuery summarizes one snapshot's connectivity.
type ReachabilityQuery struct {
	// Components counts connected components of the whole graph.
	Components int `json:"components"`
	// StrandedSats counts satellites outside the main (city-bearing)
	// component — useless for networking at this snapshot; StrandedFrac is
	// the fraction of the fleet.
	StrandedSats int     `json:"strandedSats"`
	StrandedFrac float64 `json:"strandedFrac"`
	// ReachableCities counts cities reachable from the source city
	// (including itself); it is TotalCities when Src was not given (< 0).
	ReachableCities int `json:"reachableCities"`
	TotalCities     int `json:"totalCities"`
}

// ReachabilityIn summarizes a view of a snapshot: component structure,
// stranded satellites, and — when src ≥ 0 — how many cities that source can
// reach, all with the view's cut removed. Cancellation reaches the kernel as
// in PathIn.
func (s *Sim) ReachabilityIn(ctx context.Context, v graph.View, src int) (*ReachabilityQuery, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := v.N
	stranded, count := strandedSats(v)
	q := &ReachabilityQuery{Components: count, StrandedSats: stranded, TotalCities: len(s.Cities)}
	if n.NumSat > 0 {
		q.StrandedFrac = float64(q.StrandedSats) / float64(n.NumSat)
	}

	if src < 0 {
		q.ReachableCities = q.TotalCities
		return q, nil
	}
	if src >= len(s.Cities) {
		return nil, fmt.Errorf("core: city index %d out of range (%d cities)", src, len(s.Cities))
	}
	st := graph.AcquireSearch()
	defer st.Release()
	done := v.Search(st, graph.SearchSpec{
		Src:    n.CityNode(src),
		Target: graph.NoTarget,
		Stop:   func() bool { return ctx.Err() != nil },
	})
	if !done {
		return nil, ctx.Err()
	}
	for i := 0; i < len(s.Cities); i++ {
		if st.Reached(n.CityNode(i)) {
			q.ReachableCities++
		}
	}
	return q, nil
}
