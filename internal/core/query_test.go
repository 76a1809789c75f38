package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/graph"
)

func querySim(t *testing.T) *Sim {
	t.Helper()
	scale := TinyScale()
	scale.NumSnapshots = 2
	s, err := NewSim(Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFindCity(t *testing.T) {
	s := querySim(t)
	idx, ok := s.FindCity(s.CityName(3))
	if !ok || idx != 3 {
		t.Fatalf("FindCity(%q) = (%d, %v), want (3, true)", s.CityName(3), idx, ok)
	}
	if _, ok := s.FindCity("Atlantis"); ok {
		t.Fatal("FindCity should miss on unknown city")
	}
	if s.NumCities() != len(s.Cities) {
		t.Fatalf("NumCities = %d, want %d", s.NumCities(), len(s.Cities))
	}
}

// PathAt must agree exactly with the batch path the experiments compute —
// the server serves the same numbers the figures print.
func TestPathAtMatchesBatchShortestPath(t *testing.T) {
	s := querySim(t)
	ctx := context.Background()
	for _, mode := range []Mode{BP, Hybrid} {
		n := s.NetworkAt(geo.Epoch, mode)
		for _, pair := range s.Pairs[:10] {
			q, err := s.PathAt(ctx, n, pair.Src, pair.Dst)
			if err != nil {
				t.Fatal(err)
			}
			p, ok := n.ShortestPath(n.CityNode(pair.Src), n.CityNode(pair.Dst))
			if q.Reachable != ok {
				t.Fatalf("%s %d→%d: reachable=%v, batch says %v", mode, pair.Src, pair.Dst, q.Reachable, ok)
			}
			if !ok {
				continue
			}
			if q.RTTMs != p.RTTMs() || q.Hops != p.Hops() {
				t.Fatalf("%s %d→%d: (rtt=%v hops=%d), batch (rtt=%v hops=%d)",
					mode, pair.Src, pair.Dst, q.RTTMs, q.Hops, p.RTTMs(), p.Hops())
			}
			if len(q.Route) != p.Hops()+1 {
				t.Fatalf("route has %d names for %d hops", len(q.Route), p.Hops())
			}
		}
	}
}

// A cancelled request context must reach the routing kernel: PathAt returns
// the context's error, not a result.
func TestPathAtCancellationReachesKernel(t *testing.T) {
	s := querySim(t)
	n := s.NetworkAt(geo.Epoch, BP)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q, err := s.PathAt(ctx, n, s.Pairs[0].Src, s.Pairs[0].Dst)
	if q != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("PathAt on cancelled ctx = (%v, %v), want (nil, context.Canceled)", q, err)
	}
	if _, err := s.ReachabilityIn(ctx, graph.View{N: n}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReachabilityIn on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestPathAtRejectsBadIndices(t *testing.T) {
	s := querySim(t)
	n := s.NetworkAt(geo.Epoch, BP)
	if _, err := s.PathAt(context.Background(), n, -1, 0); err == nil {
		t.Fatal("negative src should error")
	}
	if _, err := s.PathAt(context.Background(), n, 0, len(s.Cities)); err == nil {
		t.Fatal("out-of-range dst should error")
	}
}

// BuildNetworkAt is pure — two calls with the same (t, mode, outages) agree
// link for link — and derives instead of scanning: the healthy network is the
// sim cache's shared entry, a masked one its own link list over it, and however
// many what-ifs are asked the instant is scanned once.
func TestBuildNetworkAtSharesHealthyCopiesMasked(t *testing.T) {
	s := querySim(t)
	ctx := context.Background()
	base := s.NetworkCacheStats()

	plan, err := fault.ForScenario(fault.SatOutage, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.RealizeAt(s.Const, len(s.Seg.Terminals), geo.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := s.BuildNetworkAt(ctx, geo.Epoch, Hybrid, out)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := s.BuildNetworkAt(ctx, geo.Epoch, Hybrid, out)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == n2 {
		t.Fatal("masked networks must be private copies, not one shared network")
	}
	if len(n1.Links) != len(n2.Links) || n1.N() != n2.N() {
		t.Fatalf("non-deterministic build: %d/%d links, %d/%d nodes",
			len(n1.Links), len(n2.Links), n1.N(), n2.N())
	}
	for i := range n1.Links {
		if n1.Links[i] != n2.Links[i] {
			t.Fatalf("link %d differs between identical builds", i)
		}
	}
	// The healthy network is the cached one, and the masks left it alone.
	healthy, err := s.BuildNetworkAt(ctx, geo.Epoch, Hybrid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if healthy != s.NetworkAt(geo.Epoch, Hybrid) {
		t.Fatal("healthy BuildNetworkAt is not the sim cache's network")
	}
	if len(healthy.Links) <= len(n1.Links) {
		t.Fatalf("mask removed nothing: healthy %d links, faulted %d", len(healthy.Links), len(n1.Links))
	}
	if after := s.NetworkCacheStats(); after.Builds-base.Builds != 2 {
		t.Errorf("three BuildNetworkAt calls cost %d cache builds, want 2 (the base and its hybrid)",
			after.Builds-base.Builds)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.BuildNetworkAt(cctx, geo.Epoch, BP, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled BuildNetworkAt: err = %v, want context.Canceled", err)
	}
}

func TestReachabilityAt(t *testing.T) {
	s := querySim(t)
	ctx := context.Background()
	n := s.NetworkAt(geo.Epoch, BP)

	q, err := s.ReachabilityIn(ctx, graph.View{N: n}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Components < 1 || q.TotalCities != len(s.Cities) {
		t.Fatalf("summary = %+v", q)
	}
	if q.StrandedFrac < 0 || q.StrandedFrac > 1 || math.IsNaN(q.StrandedFrac) {
		t.Fatalf("StrandedFrac = %v", q.StrandedFrac)
	}
	if q.ReachableCities != q.TotalCities {
		t.Fatalf("no-source query: ReachableCities = %d, want TotalCities %d", q.ReachableCities, q.TotalCities)
	}

	qs, err := s.ReachabilityIn(ctx, graph.View{N: n}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if qs.ReachableCities < 1 || qs.ReachableCities > qs.TotalCities {
		t.Fatalf("sourced query: ReachableCities = %d of %d", qs.ReachableCities, qs.TotalCities)
	}
	if _, err := s.ReachabilityIn(ctx, graph.View{N: n}, len(s.Cities)); err == nil {
		t.Fatal("out-of-range source should error")
	}
}

// TestMainComponentTieBreak pins the "main component" choice when two
// components hold equally many cities: city0–sat0 and city1–sat1–sat2. The
// choice used to follow map iteration order, so the stranded fraction came
// back as 1/3 or 2/3 from call to call; ties now go to the lowest component
// ID (sat0's), for the §5 statistic and /v1/reachability alike.
func TestMainComponentTieBreak(t *testing.T) {
	n := &graph.Network{NumSat: 3, NumCity: 2}
	for i := 0; i < 3; i++ {
		n.AddNode(graph.NodeSatellite, geo.Vec3{}, "")
	}
	for i := 0; i < 2; i++ {
		n.AddNode(graph.NodeCity, geo.Vec3{}, "")
	}
	n.AddLink(n.CityNode(0), 0, graph.LinkGSL, 1)
	n.AddLink(n.CityNode(1), 1, graph.LinkGSL, 1)
	n.AddLink(1, 2, graph.LinkISL, 1)
	for i := 0; i < 200; i++ {
		if got := disconnectedSatFraction(n); got != 2.0/3 {
			t.Fatalf("call %d: disconnectedSatFraction = %v, want 2/3", i, got)
		}
		q, err := new(Sim).ReachabilityIn(context.Background(), graph.View{N: n}, -1)
		if err != nil {
			t.Fatal(err)
		}
		if q.Components != 2 || q.StrandedSats != 2 {
			t.Fatalf("call %d: ReachabilityIn = %+v, want 2 components, 2 stranded", i, q)
		}
	}
}
