package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"leosim/internal/geo"
)

// The differential battery for ball-directed peels (KDisjointPathsTo): a
// destination's ball — a plain search from it, stopped once its last source
// settles — bounds every peel of every source by min(D(v), R), its own label
// capped at its radius (DESIGN.md §7). TestBallBound holds the bound to that
// lemma node by node and link by link; TestDifferentialBallPeels holds every
// disjoint-path set it directs to naiveDijkstra peeling.

// ballNet builds a random network laid out as the Builder lays one out: sats
// satellites, cities cities, relays relays and aircraft aircraft, in that
// order and counted so, at random points 550 km up within 5° of (0°, 0°), and
// one isolated aircraft after them. Every city, relay and aircraft but the
// last links to one to four random satellites; isls random satellite pairs
// and fibers random ground-side pairs are linked too. A link weighs its
// chord's delay rounded up to a 0.5 ms step, plus 0 to 1 ms in 0.5 ms steps:
// the free-space bound is open and strong, so a search for one node pops far
// out of distance order, and sums tie exactly and often.
func ballNet(r *rand.Rand, sats, cities, relays, aircraft, isls, fibers int) *Network {
	n := &Network{NumSat: sats, NumCity: cities, NumRelay: relays, NumAircraft: aircraft + 1}
	for _, k := range []struct {
		kind  NodeKind
		count int
	}{{NodeSatellite, sats}, {NodeCity, cities}, {NodeRelay, relays}, {NodeAircraft, aircraft + 1}} {
		for i := 0; i < k.count; i++ {
			n.Kind = append(n.Kind, k.kind)
			n.Pos = append(n.Pos, geo.LatLon{Lat: 10*r.Float64() - 5, Lon: 10*r.Float64() - 5, Alt: 550}.ToECEF())
			n.Name = append(n.Name, "")
		}
	}
	add := func(a, b int32, kind LinkKind) {
		ms := math.Ceil(2*n.Pos[a].Sub(n.Pos[b]).Norm()*geo.MsPerKm)/2 + 0.5*float64(r.Intn(3))
		n.Links = append(n.Links, Link{A: a, B: b, Kind: kind, CapGbps: 1, OneWayMs: math.Max(ms, 0.5)})
	}
	isolated := int32(n.N() - 1)
	for g := int32(sats); g < isolated; g++ {
		for k := 1 + r.Intn(4); k > 0; k-- {
			add(g, int32(r.Intn(sats)), LinkGSL)
		}
	}
	for i := 0; i < isls; i++ {
		if a, b := int32(r.Intn(sats)), int32(r.Intn(sats)); a != b {
			add(a, b, LinkISL)
		}
	}
	for i := 0; i < fibers; i++ {
		if a, b := int32(sats+r.Intn(int(isolated)-sats)), int32(sats+r.Intn(int(isolated)-sats)); a != b {
			add(a, b, LinkFiber)
		}
	}
	return n
}

// masked is n with each link dropped at probability frac: a fault mask's
// network, sharing n's nodes.
func masked(r *rand.Rand, n *Network, frac float64) *Network {
	var kept []Link
	for _, l := range n.Links {
		if r.Float64() >= frac {
			kept = append(kept, l)
		}
	}
	return n.WithLinks(kept)
}

// ballCase is one destination and source list of the battery.
type ballCase struct {
	kind, tag string
	n         *Network
	dst       int32
	srcs      []int32
}

// ballCases draws, on 40 ballNets and each one masked by a 20 % link outage,
// and on randomMirrorNet's geometric lattices (seeds 300–314, whose twin
// routes tie to the last bit), a destination and its source lists: two
// sources, one of them twice, with the destination itself; the same plus the
// isolated node, which no ball reaches, so the ball runs to exhaustion; every
// node; and each node alone — a one-node list, which a goal-directed search
// would head for, popping out of distance order.
func ballCases() []ballCase {
	var cases []ballCase
	add := func(kind, tag string, r *rand.Rand, n *Network, isolated int32) {
		pick := func() int32 { return int32(r.Intn(int(isolated))) }
		dst, b, c := pick(), pick(), pick()
		every := make([]int32, n.N())
		for v := range every {
			every[v] = int32(v)
		}
		lists := [][]int32{{b, c, b, dst}, {b, c, b, dst, isolated}, every}
		for _, v := range every {
			lists = append(lists, []int32{v})
		}
		for _, srcs := range lists {
			cases = append(cases, ballCase{kind, fmt.Sprintf("%s, %d sources to %d", tag, len(srcs), dst), n, dst, srcs})
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := ballNet(r, 10, 3, 8, 3, 12, 4)
		add("relay", fmt.Sprintf("seed %d", seed), r, n, int32(n.N()-1))
		add("masked relay", fmt.Sprintf("seed %d masked", seed), r, masked(r, n, 0.2), int32(n.N()-1))
	}
	orbit := geo.LatLon{Alt: 550}.ToECEF()
	for seed := int64(300); seed < 315; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomMirrorNet(r, 10, 24)
		add("lattice", fmt.Sprintf("lattice seed %d", seed), r, n, n.AddNode(NodeSatellite, orbit, ""))
	}
	return cases
}

// TestBallBound holds the bound a ball gives a peel to the lemma that makes
// it exact: for every node v, min(D(v), R) scaled by the slack is at most
// v's distance to the destination (naiveDijkstra's, the graph being
// undirected), and at most the bound at u plus w on every link u–v, the
// consistency a goal-directed search needs. R is +Inf exactly where a source
// is unreachable, and on each kind of network some ball stops with a
// reachable node's label above R or unset, so the cap is what holds the
// bound there.
func TestBallBound(t *testing.T) {
	ball, st := AcquireSearch(), AcquireSearch()
	defer ball.Release()
	defer st.Release()
	capped := map[string]int{}
	for _, c := range ballCases() {
		if c.n.goalTerms() == nil {
			t.Fatalf("%s: the free-space gate is closed", c.tag)
		}
		c.n.growBall(ball, c.dst, c.srcs)
		st.directByBall(ball)
		dist, _ := naiveDijkstra(c.n, c.dst, nil, nil, false, nil)
		reachable := true
		for _, v := range c.srcs {
			reachable = reachable && !math.IsInf(dist[v], 1)
		}
		if math.IsInf(st.radius, 1) == reachable {
			t.Fatalf("%s: radius %v, but every source reachable = %v", c.tag, st.radius, reachable)
		}
		for v := range int32(c.n.N()) {
			if !math.IsInf(dist[v], 1) && ball.Dist(v) > st.radius {
				capped[c.kind]++
				break
			}
		}
		for v := range int32(c.n.N()) {
			if h := st.treeBound(v); !(h <= dist[v]*treeScale) {
				t.Fatalf("%s: bound %v at node %d, its distance %v (ball label %v, radius %v)", c.tag, h, v, dist[v], ball.Dist(v), st.radius)
			}
		}
		for li, l := range c.n.Links {
			for _, e := range [][2]int32{{l.A, l.B}, {l.B, l.A}} {
				if hu, hv := st.treeBound(e[0]), st.treeBound(e[1]); !(hu <= hv+l.OneWayMs) {
					t.Fatalf("%s: link %d (%d–%d, %v ms): bound %v at %d, %v at %d", c.tag, li, e[0], e[1], l.OneWayMs, hu, e[0], hv, e[1])
				}
			}
		}
	}
	for _, kind := range []string{"relay", "masked relay", "lattice"} {
		if capped[kind] == 0 {
			t.Fatalf("no ball on a %s network left a reachable node past its radius", kind)
		}
	}
	t.Logf("balls that left a reachable node past their radius: %v", capped)
}

// TestDifferentialBallPeels holds every entry of KDisjointPathsTo on
// ballCases, for k = 1, 4 and 6, to naiveDijkstra peeling — search, ban the
// found path's links, search again — path for path and bit for bit.
func TestDifferentialBallPeels(t *testing.T) {
	for _, c := range ballCases() {
		for _, k := range []int{1, 4, 6} {
			got := c.n.KDisjointPathsTo(c.dst, c.srcs, k)
			if len(got) != len(c.srcs) {
				t.Fatalf("%s, k=%d: %d entries for %d sources", c.tag, k, len(got), len(c.srcs))
			}
			for i, src := range c.srcs {
				tag := fmt.Sprintf("%s, k=%d, %d→%d", c.tag, k, src, c.dst)
				requireSamePaths(t, tag, got[i], naiveKDisjoint(c.n, src, c.dst, k))
			}
		}
	}
}
