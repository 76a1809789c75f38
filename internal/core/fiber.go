package core

import (
	"context"
	"fmt"
	"time"

	"leosim/internal/flow"
	"leosim/internal/graph"
	"leosim/internal/safe"
)

// FiberResult quantifies Fig 11's "distributed GTs" idea: a congested metro
// offloads some ground-satellite traffic through terrestrial fiber to nearby
// cities, multiplying the satellites its traffic can enter through.
type FiberResult struct {
	Metro  string
	Nearby []string
	// MetroVisible is the mean number of satellites the metro alone can
	// reach; UnionVisible counts distinct satellites reachable by the
	// metro or any fiber-connected neighbor.
	MetroVisible, UnionVisible float64
	// UplinkCapGbps are the aggregate first-hop capacities without and
	// with the fiber-attached neighbors, for the metro's own traffic.
	MetroUplinkGbps, UnionUplinkGbps float64
	// ThroughputGainFrac is the relative gain in the metro's achievable
	// egress capacity (max-flow from the metro to a set of far
	// destinations) once fiber links are added. Max-flow is used rather
	// than shortest-path max-min throughput because it is monotone in
	// added links — the capacity question Fig 11 poses, free of
	// path-selection artifacts.
	ThroughputGainFrac float64
}

// RunFiberAugmentation evaluates §8's fiber augmentation for a metro and a
// set of nearby cities at one snapshot. It adds fiber links metro↔neighbor
// (capacity fiberGbps each) and measures the growth in reachable satellites
// and in max-min throughput for a set of metro-sourced flows.
func RunFiberAugmentation(ctx context.Context, s *Sim, metro string, nearby []string, fiberGbps float64, t time.Time) (res *FiberResult, err error) {
	defer safe.RecoverTo(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s, err = s.WithCities(append([]string{metro}, nearby...)...); err != nil {
		return nil, err
	}
	idx := func(name string) int {
		i, _ := s.FindCity(name) // WithCities above made every name resolve
		return i
	}
	mi := idx(metro)

	n := s.NetworkAtCtx(ctx, t, Hybrid)
	res = &FiberResult{Metro: metro, Nearby: nearby}

	visible := func(city int) map[int32]bool {
		out := map[int32]bool{}
		node := n.CityNode(city)
		for _, l := range n.Links {
			if l.Kind != graph.LinkGSL {
				continue
			}
			if l.A == node {
				out[l.B] = true
			} else if l.B == node {
				out[l.A] = true
			}
		}
		return out
	}
	metroSats := visible(mi)
	union := map[int32]bool{}
	for s := range metroSats {
		union[s] = true
	}
	res.MetroVisible = float64(len(metroSats))
	res.MetroUplinkGbps = float64(len(metroSats)) * graph.GSLCapGbps
	for _, nb := range nearby {
		for s := range visible(idx(nb)) {
			union[s] = true
		}
	}
	res.UnionVisible = float64(len(union))
	res.UnionUplinkGbps = float64(len(union)) * graph.GSLCapGbps

	// Throughput for metro-sourced demand: route the metro to a sample of
	// far destinations over k=4 disjoint paths, without and with fiber.
	var dsts []int
	for _, p := range s.Pairs {
		if len(dsts) >= 12 {
			break
		}
		if p.Src != mi && p.Dst != mi {
			dsts = append(dsts, p.Dst)
		}
	}
	if len(dsts) == 0 {
		return nil, fmt.Errorf("core: no destinations available for fiber experiment")
	}
	base, err := metroCapacity(s, n, mi, dsts)
	if err != nil {
		return nil, err
	}

	// Splice fiber links metro↔neighbors into a private copy of the snapshot.
	aug := n.Clone()
	for _, nb := range nearby {
		aug.AddLink(aug.CityNode(mi), aug.CityNode(idx(nb)), graph.LinkFiber, fiberGbps)
	}
	with, err := metroCapacity(s, aug, mi, dsts)
	if err != nil {
		return nil, err
	}
	if with < base-1e-6 {
		return nil, fmt.Errorf("core: fiber reduced max-flow (%v → %v) — impossible", base, with)
	}
	if base > 0 {
		res.ThroughputGainFrac = (with - base) / base
	}
	return res, nil
}

// metroCapacity computes the maximum traffic the metro can push to the given
// destination set (single-commodity max-flow with the per-satellite pool
// semantics).
func metroCapacity(s *Sim, n *graph.Network, metro int, dsts []int) (float64, error) {
	m, _ := flow.BuildMaxFlow(n, s.SatCapGbps)
	sink := m.AddNode()
	for _, d := range dsts {
		m.AddArc(n.CityNode(d), sink, 1e12)
	}
	return m.Solve(n.CityNode(metro), sink)
}
