package graph

import (
	"math"
	"testing"

	"leosim/internal/geo"
)

// line builds a simple path graph 0-1-2-...-k with unit positions spaced
// so each hop has a known delay.
func lineNetwork(t *testing.T, k int) *Network {
	t.Helper()
	n := &Network{}
	for i := 0; i <= k; i++ {
		p := geo.LL(0, float64(i)).ToECEF()
		n.AddNode(NodeCity, p, "")
	}
	for i := 0; i < k; i++ {
		n.AddLink(int32(i), int32(i+1), LinkGSL, 10)
	}
	return n
}

func TestShortestPathLine(t *testing.T) {
	n := lineNetwork(t, 4)
	p, ok := n.ShortestPath(0, 4)
	if !ok {
		t.Fatal("path not found")
	}
	if p.Hops() != 4 {
		t.Errorf("hops = %d", p.Hops())
	}
	if len(p.Nodes) != 5 || p.Nodes[0] != 0 || p.Nodes[4] != 4 {
		t.Errorf("nodes = %v", p.Nodes)
	}
	// Each 1°-of-longitude hop at the Equator is ≈111.19 km → ≈0.371 ms.
	hopMs := 111.19 / geo.LightSpeed * 1000
	if math.Abs(p.OneWayMs-4*hopMs) > 0.01 {
		t.Errorf("delay = %v ms, want ≈%v", p.OneWayMs, 4*hopMs)
	}
	if math.Abs(p.RTTMs()-2*p.OneWayMs) > 1e-12 {
		t.Errorf("RTT should be twice one-way")
	}
}

func TestShortestPathPrefersLowDelay(t *testing.T) {
	// Triangle: 0-1 direct long hop vs 0-2-1 two short hops that sum
	// shorter (positions chosen so detour wins).
	n := &Network{}
	a := n.AddNode(NodeCity, geo.LL(0, 0).ToECEF(), "a")
	b := n.AddNode(NodeCity, geo.LL(0, 40).ToECEF(), "b")
	// c sits slightly off the straight line; chord distances still make
	// a-c-b shorter than the direct a-b? No — straight line is shortest.
	// Instead make the direct link fiber (1.5× stretch, 2/3 c): slower.
	n.AddLink(a, b, LinkFiber, 10)
	c := n.AddNode(NodeSatellite, geo.LatLon{Lat: 0, Lon: 20, Alt: 550}.ToECEF(), "c")
	n.AddLink(a, c, LinkGSL, 10)
	n.AddLink(c, b, LinkGSL, 10)
	p, ok := n.ShortestPath(a, b)
	if !ok {
		t.Fatal("no path")
	}
	if p.Hops() != 2 {
		t.Errorf("should route via satellite: %v", p.Nodes)
	}
}

func TestDisconnected(t *testing.T) {
	n := lineNetwork(t, 2)
	iso := n.AddNode(NodeCity, geo.LL(10, 10).ToECEF(), "island")
	if _, ok := n.ShortestPath(0, iso); ok {
		t.Errorf("found path to isolated node")
	}
	dist, _ := searchTree(n, 0, nil, nil)
	if !math.IsInf(dist[iso], 1) {
		t.Errorf("distance to isolated node = %v", dist[iso])
	}
	comp, count := View{N: n}.Components()
	if count != 2 {
		t.Errorf("components = %d, want 2", count)
	}
	if comp[0] == comp[iso] {
		t.Errorf("isolated node in main component")
	}
}

func TestKDisjointPaths(t *testing.T) {
	// Two node-disjoint routes between a and b via different satellites.
	n := &Network{}
	a := n.AddNode(NodeCity, geo.LL(0, 0).ToECEF(), "a")
	b := n.AddNode(NodeCity, geo.LL(0, 30).ToECEF(), "b")
	s1 := n.AddNode(NodeSatellite, geo.LatLon{Lat: 0, Lon: 15, Alt: 550}.ToECEF(), "s1")
	s2 := n.AddNode(NodeSatellite, geo.LatLon{Lat: 8, Lon: 15, Alt: 550}.ToECEF(), "s2")
	n.AddLink(a, s1, LinkGSL, 10)
	n.AddLink(s1, b, LinkGSL, 10)
	n.AddLink(a, s2, LinkGSL, 10)
	n.AddLink(s2, b, LinkGSL, 10)
	paths := n.KDisjointPaths(a, b, 4)
	if len(paths) != 2 {
		t.Fatalf("got %d disjoint paths, want 2", len(paths))
	}
	// First path is the shorter (via s1, closer to the geodesic).
	if paths[0].OneWayMs > paths[1].OneWayMs {
		t.Errorf("paths not in increasing delay order")
	}
	// Edge-disjointness.
	used := map[int32]bool{}
	for _, p := range paths {
		for _, li := range p.Links {
			if used[li] {
				t.Fatalf("link %d reused", li)
			}
			used[li] = true
		}
	}
}

func TestKDisjointFewerThanK(t *testing.T) {
	n := lineNetwork(t, 3)
	paths := n.KDisjointPaths(0, 3, 5)
	if len(paths) != 1 {
		t.Errorf("line graph has exactly 1 disjoint path, got %d", len(paths))
	}
}

func TestDijkstraBannedLinks(t *testing.T) {
	n := lineNetwork(t, 2)
	banned := map[int32]bool{0: true}
	dist, _ := searchTree(n, 0, banned, nil)
	if !math.IsInf(dist[2], 1) {
		t.Errorf("banned link should disconnect: dist=%v", dist[2])
	}
}

func TestFiberLinkDelay(t *testing.T) {
	n := &Network{}
	a := n.AddNode(NodeCity, geo.LL(48.86, 2.35).ToECEF(), "paris")
	b := n.AddNode(NodeCity, geo.LL(49.44, 1.10).ToECEF(), "rouen")
	li := n.AddLink(a, b, LinkFiber, 100)
	chord := n.Pos[a].Distance(n.Pos[b])
	want := chord * 1.5 / geo.FiberSpeed * 1000
	if math.Abs(n.Links[li].OneWayMs-want) > 1e-9 {
		t.Errorf("fiber delay = %v, want %v", n.Links[li].OneWayMs, want)
	}
	// Fiber must be slower than a radio link over the same chord.
	radio := chord / geo.LightSpeed * 1000
	if n.Links[li].OneWayMs <= radio {
		t.Errorf("fiber should be slower than line-of-sight radio")
	}
}

func TestNodeLinkKindStrings(t *testing.T) {
	if NodeSatellite.String() != "sat" || NodeCity.String() != "city" ||
		NodeRelay.String() != "relay" || NodeAircraft.String() != "aircraft" {
		t.Errorf("node kind strings")
	}
	if LinkGSL.String() != "gsl" || LinkISL.String() != "isl" || LinkFiber.String() != "fiber" {
		t.Errorf("link kind strings")
	}
	if NodeKind(7).String() == "" || LinkKind(7).String() == "" {
		t.Errorf("unknown kinds should format")
	}
}
