package routing

import (
	"math"
	"testing"

	"leosim/internal/geo"
	"leosim/internal/graph"
)

// twoCorridorNet: a and b are connected by a short corridor (one link) and a
// longer detour (two links), so a congestion-aware router facing many
// demands must start using the detour.
func twoCorridorNet() (*graph.Network, int32, int32) {
	n := &graph.Network{}
	a := n.AddNode(graph.NodeCity, geo.LL(0, 0).ToECEF(), "a")
	b := n.AddNode(graph.NodeCity, geo.LL(0, 20).ToECEF(), "b")
	mid := n.AddNode(graph.NodeSatellite, geo.LatLon{Lat: 15, Lon: 10, Alt: 550}.ToECEF(), "detour")
	n.AddLink(a, b, graph.LinkISL, 10)    // direct, cheap delay, small capacity
	n.AddLink(a, mid, graph.LinkISL, 100) // detour legs, big capacity
	n.AddLink(mid, b, graph.LinkISL, 100)
	return n, a, b
}

func TestShortestDelayWhenUncongested(t *testing.T) {
	n, a, b := twoCorridorNet()
	asgs, err := MinMaxUtilization(n, []Demand{{Src: a, Dst: b, K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(asgs) != 1 || len(asgs[0].Paths) != 1 {
		t.Fatalf("assignments: %+v", asgs)
	}
	if asgs[0].Paths[0].Hops() != 1 {
		t.Errorf("single uncongested demand should take the direct link")
	}
}

func TestCongestionSpreadsLoad(t *testing.T) {
	n, a, b := twoCorridorNet()
	// 30 demands × 1 Gbps nominal on a 10 Gbps direct link: the router
	// must shift a substantial share onto the detour.
	demands := make([]Demand, 30)
	for i := range demands {
		demands[i] = Demand{Src: a, Dst: b, K: 1}
	}
	asgs, err := MinMaxUtilization(n, demands)
	if err != nil {
		t.Fatal(err)
	}
	direct, detour := 0, 0
	for _, asg := range asgs {
		if len(asg.Paths) != 1 {
			t.Fatalf("demand unrouted: %+v", asg)
		}
		if asg.Paths[0].Hops() == 1 {
			direct++
		} else {
			detour++
		}
	}
	if detour == 0 {
		t.Fatalf("congestion-aware router never used the detour (direct=%d)", direct)
	}
	if direct == 0 {
		t.Fatalf("router abandoned the direct link entirely")
	}
	// Max utilization must beat pure shortest-path routing (which puts
	// all 30 on the 10 Gbps link → utilization 3.0).
	if mu := MaxUtilization(n, asgs); mu >= 3.0 {
		t.Errorf("max utilization %v not improved over shortest-path 3.0", mu)
	}
	// And the mean delay is higher than the pure-direct delay — the
	// latency cost the paper predicts.
	shortest, _ := n.ShortestPath(a, b)
	if MeanPathDelayMs(asgs) <= shortest.OneWayMs {
		t.Errorf("traffic engineering should cost latency")
	}
}

func TestDisjointWithinDemand(t *testing.T) {
	n, a, b := twoCorridorNet()
	asgs, err := MinMaxUtilization(n, []Demand{{Src: a, Dst: b, K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	paths := asgs[0].Paths
	if len(paths) != 2 {
		t.Fatalf("want 2 disjoint paths, got %d", len(paths))
	}
	used := map[int32]bool{}
	for _, p := range paths {
		for _, li := range p.Links {
			if used[li] {
				t.Fatalf("link %d reused across sub-flows", li)
			}
			used[li] = true
		}
	}
	// K beyond the disjoint capacity yields fewer paths, not an error.
	asgs, err = MinMaxUtilization(n, []Demand{{Src: a, Dst: b, K: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(asgs[0].Paths) != 2 {
		t.Errorf("only 2 disjoint routes exist, got %d", len(asgs[0].Paths))
	}
}

func TestValidationErrors(t *testing.T) {
	n, a, b := twoCorridorNet()
	if _, err := MinMaxUtilization(n, []Demand{{Src: a, Dst: b, K: 0}}); err == nil {
		t.Errorf("K=0 must error")
	}
}

func TestUnroutableDemand(t *testing.T) {
	n := &graph.Network{}
	a := n.AddNode(graph.NodeCity, geo.LL(0, 0).ToECEF(), "a")
	b := n.AddNode(graph.NodeCity, geo.LL(0, 50).ToECEF(), "b")
	asgs, err := MinMaxUtilization(n, []Demand{{Src: a, Dst: b, K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(asgs[0].Paths) != 0 {
		t.Errorf("disconnected demand should have no paths")
	}
	if !math.IsNaN(MeanPathDelayMs(asgs)) {
		t.Errorf("mean delay of nothing should be NaN")
	}
	if MaxUtilization(n, asgs) != 0 {
		t.Errorf("no load → zero utilization")
	}
}

func TestDeterminism(t *testing.T) {
	n, a, b := twoCorridorNet()
	demands := []Demand{{Src: a, Dst: b, K: 2}, {Src: b, Dst: a, K: 1}}
	x, _ := MinMaxUtilization(n, demands)
	y, _ := MinMaxUtilization(n, demands)
	for i := range x {
		if len(x[i].Paths) != len(y[i].Paths) {
			t.Fatalf("non-deterministic path counts")
		}
		for j := range x[i].Paths {
			if x[i].Paths[j].OneWayMs != y[i].Paths[j].OneWayMs {
				t.Fatalf("non-deterministic routing")
			}
		}
	}
}
