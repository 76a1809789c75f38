package graph

import (
	"math"
	"testing"
)

// Failure injection: knock out every link of the satellites a path relies
// on and verify the hybrid network reroutes with bounded degradation —
// the +Grid mesh has no single point of failure.
func TestSatelliteFailureRerouting(t *testing.T) {
	_, hy := testSetup(t, true)
	src, dst := hy.CityNode(0), hy.CityNode(2)
	base, ok := hy.ShortestPath(src, dst)
	if !ok {
		t.Fatal("no baseline path")
	}

	// Fail every satellite on the baseline path.
	banned := map[int32]bool{}
	failed := map[int32]bool{}
	for _, v := range base.Nodes {
		if hy.Kind[v] == NodeSatellite {
			failed[v] = true
		}
	}
	if len(failed) == 0 {
		t.Fatal("baseline path uses no satellites?")
	}
	for li, l := range hy.Links {
		if failed[l.A] || failed[l.B] {
			banned[int32(li)] = true
		}
	}

	dist, prev := searchTree(hy, src, banned, false)
	if math.IsInf(dist[dst], 1) {
		t.Fatalf("failing %d satellites disconnected the pair — no mesh resilience", len(failed))
	}
	p, ok := hy.extractPath(src, dst, dist, prev)
	if !ok {
		t.Fatal("path extraction failed")
	}
	for _, v := range p.Nodes {
		if failed[v] {
			t.Fatalf("reroute still uses failed satellite %d", v)
		}
	}
	// Degradation bound: the reroute is longer but within 3× + slack of
	// the baseline (neighbouring orbits cover the same region).
	if p.OneWayMs > base.OneWayMs*3+20 {
		t.Errorf("reroute delay %v ms vs baseline %v ms — degradation too large",
			p.OneWayMs, base.OneWayMs)
	}
}

// Failing an entire orbital plane must still leave the +Grid mesh connected
// (cross-plane rings survive).
func TestPlaneFailureKeepsMeshConnected(t *testing.T) {
	b, hy := testSetup(t, true)
	// Ban all links touching plane 0 of shell 0.
	banned := map[int32]bool{}
	inPlane := map[int32]bool{}
	for _, s := range b.Const.Sats {
		if s.ShellIndex == 0 && s.Plane == 0 {
			inPlane[int32(s.Index)] = true
		}
	}
	for li, l := range hy.Links {
		if inPlane[l.A] || inPlane[l.B] {
			banned[int32(li)] = true
		}
	}
	src := hy.CityNode(0)
	dist, _ := searchTree(hy, src, banned, false)
	reached := 0
	for i := 0; i < hy.NumSat; i++ {
		if inPlane[int32(i)] {
			continue
		}
		if !math.IsInf(dist[i], 1) {
			reached++
		}
	}
	// All surviving satellites remain reachable through the mesh.
	if want := hy.NumSat - len(inPlane); reached < want {
		t.Errorf("only %d of %d surviving satellites reachable after plane failure",
			reached, want)
	}
}
