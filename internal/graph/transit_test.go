package graph

import (
	"testing"

	"leosim/internal/geo"
)

// satTransitPath is the minimum-delay path from src to dst under §6's
// satellite-transit model: one search with SatTransit set.
func satTransitPath(n *Network, src, dst int32) (Path, bool) {
	st := AcquireSearch()
	defer st.Release()
	n.Search(st, SearchSpec{Src: src, Target: dst, SatTransit: true})
	return st.Path(dst)
}

func TestSatTransit(t *testing.T) {
	// a — s1 — r — s2 — b with an ISL s1—s2: the unrestricted shortest
	// path may bounce through relay r, but the satellite-transit-only
	// search must stay in space.
	n := &Network{}
	s1 := n.AddNode(NodeSatellite, geo.LatLon{Lat: 0, Lon: 8, Alt: 550}.ToECEF(), "s1")
	s2 := n.AddNode(NodeSatellite, geo.LatLon{Lat: 0, Lon: 22, Alt: 550}.ToECEF(), "s2")
	n.NumSat = 2
	a := n.AddNode(NodeCity, geo.LL(0, 0).ToECEF(), "a")
	r := n.AddNode(NodeRelay, geo.LL(0, 15).ToECEF(), "r")
	b := n.AddNode(NodeCity, geo.LL(0, 30).ToECEF(), "b")
	n.AddLink(a, s1, LinkGSL, 20)
	n.AddLink(s1, r, LinkGSL, 20)
	n.AddLink(r, s2, LinkGSL, 20)
	n.AddLink(s2, b, LinkGSL, 20)
	n.AddLink(s1, s2, LinkISL, 100)

	unrestricted, ok := n.ShortestPath(a, b)
	if !ok {
		t.Fatal("no unrestricted path")
	}
	sat, ok := satTransitPath(n, a, b)
	if !ok {
		t.Fatal("no satellite-transit path")
	}
	for _, v := range sat.Nodes[1 : len(sat.Nodes)-1] {
		if n.IsGroundSide(v) {
			t.Fatalf("sat-transit path crosses ground node %d", v)
		}
	}
	// The bounce through r is shorter in pure delay (it hugs the
	// geodesic), so the restriction must cost delay here.
	if sat.OneWayMs < unrestricted.OneWayMs-1e-9 {
		t.Errorf("restricted path cannot be faster")
	}

	// The Edges accessor.
	if len(n.Edges(s1)) != 3 {
		t.Errorf("edges(s1) = %d", len(n.Edges(s1)))
	}
	for _, e := range n.Edges(a) {
		if e.To != s1 {
			t.Errorf("a's only neighbour should be s1")
		}
	}

	// If the destination's only access is via a ground bounce, the
	// sat-transit search reports unreachable.
	c := n.AddNode(NodeCity, geo.LL(5, 45).ToECEF(), "c")
	r2 := n.AddNode(NodeRelay, geo.LL(0, 38).ToECEF(), "r2")
	s3 := n.AddNode(NodeSatellite, geo.LatLon{Lat: 0, Lon: 42, Alt: 550}.ToECEF(), "s3")
	n.AddLink(s2, r2, LinkGSL, 20) // reachable only by bouncing at r2
	n.AddLink(r2, s3, LinkGSL, 20)
	n.AddLink(s3, c, LinkGSL, 20)
	if _, ok := satTransitPath(n, a, c); ok {
		t.Errorf("c requires a ground bounce; sat-transit must fail")
	}
	if _, ok := n.ShortestPath(a, c); !ok {
		t.Errorf("c reachable with bounces")
	}
}
