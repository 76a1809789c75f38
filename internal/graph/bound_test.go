package graph

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"leosim/internal/aircraft"
	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/ground"
)

// reducedBuilder builds the reduced preset's snapshot geometry: 150 cities,
// relays on a 2.5° grid within 2,000 km, half-density aircraft, Starlink
// phase 1 with lasers.
func reducedBuilder(t testing.TB) *Builder {
	return presetBuilder(t, 150, 2.5, 2000, 0.5)
}

// tinyBuilder builds the tiny preset's: 60 cities, relays on a 5° grid within
// 1,500 km, aircraft at 0.3 density.
func tinyBuilder(t testing.TB) *Builder {
	return presetBuilder(t, 60, 5, 1500, 0.3)
}

// presetBuilder builds a preset's snapshot geometry over Starlink phase 1
// with lasers.
func presetBuilder(t testing.TB, numCities int, relaySpacingDeg, relayMaxKm, aircraftDensity float64) *Builder {
	t.Helper()
	c, err := constellation.New([]constellation.Shell{constellation.StarlinkPhase1()}, constellation.WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	cities, err := ground.Cities(numCities)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := ground.NewSegment(cities, relaySpacingDeg, relayMaxKm)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := aircraft.NewFleet(aircraftDensity)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(c, seg, fleet, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFreeSpaceBound holds the kernel's per-node bound to
// geo.MinFreeSpacePathKm × MsPerKm for every (node, city) pair of a reduced
// snapshot: scaled back by the slack it agrees within 1e-12 relative, and it
// sits at least half the slack below the free-space delay. Satellites near
// the grazing angle of a city, where the taut string switches from the chord
// to the wrapped arc, are among the pairs, and so are synthetic satellite
// pairs placed on either side of their mutual horizon. The bound must also
// be in use on both modes' networks.
func TestFreeSpaceBound(t *testing.T) {
	b := reducedBuilder(t)
	at := geo.Epoch.Add(3 * time.Hour)
	bp := b.At(at)
	for _, n := range []*Network{bp, b.Hybrid(bp, at)} {
		if n.goalTerms() == nil {
			t.Fatalf("the bound is not admissible on a %d-link snapshot", len(n.Links))
		}
	}
	terms := bp.goalTerms()
	check := func(n *Network, terms []nodeTerm, v, goal int32) {
		t.Helper()
		got := goalBound(n.Pos, terms, goal).at(v)
		want := geo.MinFreeSpacePathKm(n.Pos[v], n.Pos[goal]) * geo.MsPerKm
		if math.Abs(got/(1-boundSlack)-want) > 1e-12*want {
			t.Fatalf("%d→%d: bound %v ms, free-space delay %v ms × (1 − slack) = %v", v, goal, got, want, want*(1-boundSlack))
		}
		if got > want*(1-boundSlack/2) {
			t.Fatalf("%d→%d: bound %v ms is not below the free-space delay %v ms by the slack", v, goal, got, want)
		}
	}
	grazing := 0
	for c := 0; c < bp.NumCity; c++ {
		goal := bp.CityNode(c)
		for v := int32(0); v < int32(bp.N()); v++ {
			if v == goal {
				continue
			}
			check(bp, terms, v, goal)
			horizon := terms[v].limb + terms[goal].limb
			if v < int32(bp.NumSat) && math.Abs(bp.Pos[v].AngleTo(bp.Pos[goal])-horizon) < 0.01 {
				grazing++
			}
		}
	}
	if grazing == 0 {
		t.Fatal("no satellite within 0.01 rad of a city's horizon")
	}

	// Satellite pairs a hair inside and outside their mutual horizon.
	pair := &Network{}
	limb := math.Acos(geo.EarthRadius / (geo.EarthRadius + 550))
	for _, d := range []float64{-1e-6, -1e-12, 0, 1e-12, 1e-6} {
		half := (limb + d/2) * geo.Rad
		a := pair.AddNode(NodeSatellite, geo.LatLon{Lat: 10, Lon: -half, Alt: 550}.ToECEF(), "")
		z := pair.AddNode(NodeSatellite, geo.LatLon{Lat: 10, Lon: half, Alt: 550}.ToECEF(), "")
		pair.AddLink(a, z, LinkFiber, 1)
	}
	pairTerms := pair.goalTerms()
	if pairTerms == nil {
		t.Fatal("the bound is not admissible on the grazing pairs")
	}
	for v := int32(0); v < int32(pair.N()); v += 2 {
		check(pair, pairTerms, v, v+1)
		check(pair, pairTerms, v+1, v)
	}
}

// planeNet places nodes on the plane x = 7,000 km, above the Earth with every
// segment between them clear of it, so the bound between any two is their
// distance at c, scaled by the slack. Coordinates are (y, z) in km.
func planeNet(yz ...[2]float64) *Network {
	n := &Network{}
	for _, p := range yz {
		n.AddNode(NodeSatellite, geo.Vec3{X: 7000, Y: p[0], Z: p[1]}, "")
	}
	return n
}

// link appends a link of the given weight and invalidates the CSR.
func (n *Network) link(a, b int32, ms float64) int32 {
	n.Links = append(n.Links, Link{A: a, B: b, Kind: LinkISL, CapGbps: 1, OneWayMs: ms})
	n.csrValid.Store(false)
	return int32(len(n.Links) - 1)
}

// requireNaivePath searches src → dst alone, given tree as SearchSpec.Tree,
// and holds the target's label, its path and every node on that path to
// naiveDijkstra; goal says whether the search must have been goal-directed —
// by tree when it is not nil.
func requireNaivePath(t *testing.T, tag string, n *Network, st *SearchState, src, dst int32, banned map[int32]bool, tree []int32, goal bool) {
	t.Helper()
	n.Search(st, SearchSpec{Src: src, Target: dst, Tree: tree})
	if got := st.goal == dst; got != goal {
		t.Fatalf("%s: %d→%d goal-directed = %v, want %v", tag, src, dst, got, goal)
	}
	if got, want := st.tree != nil, goal && tree != nil; got != want {
		t.Fatalf("%s: %d→%d directed by the tree = %v, want %v", tag, src, dst, got, want)
	}
	wd, wp := naiveDijkstra(n, src, []int32{dst}, banned, nil, nil)
	p, ok := st.Path(dst)
	q, wantOK := n.extractPath(src, dst, wd, wp)
	if ok != wantOK || math.Float64bits(st.Dist(dst)) != math.Float64bits(wd[dst]) ||
		!slices.Equal(p.Links, q.Links) || math.Float64bits(p.OneWayMs) != math.Float64bits(q.OneWayMs) {
		t.Fatalf("%s: %d→%d: %v over %v (%v ms, ok=%v), reference %v over %v (%v ms, ok=%v)",
			tag, src, dst, p.Nodes, p.Links, st.Dist(dst), ok, q.Nodes, q.Links, wd[dst], wantOK)
	}
	requirePathWeighs(t, tag, st, dst, false)
	for _, v := range p.Nodes {
		if math.Float64bits(st.Dist(v)) != math.Float64bits(wd[v]) || st.PrevLink(v) != wp[v] {
			t.Fatalf("%s: %d→%d: path node %d at (%v, %d), reference (%v, %d)",
				tag, src, dst, v, st.Dist(v), st.PrevLink(v), wd[v], wp[v])
		}
	}
}

// TestGoalDirectedTieRule: node v has two predecessors u1 and u2 that tie
// exactly (dyadic weights add without rounding). Dijkstra pops u1 first — it
// is nearer the source — and keeps it; the bound pops u2 first — it is nearer
// the target — so without the tie rule v would keep u2. The goal-directed
// path must be the reference's, through u1. Two more ties at the target pop
// the target before the better candidate without the slack: one over links
// at exactly the free-space delay, one under the tree bound over links at
// exactly their tree distances.
func TestGoalDirectedTieRule(t *testing.T) {
	const s, tgt, u1, u2, v = 0, 1, 2, 3, 4
	n := planeNet([2]float64{600, 0}, [2]float64{0, 0}, [2]float64{500, 0}, [2]float64{100, 100}, [2]float64{100, 0})
	n.link(s, u1, 2)
	n.link(s, u2, 3)
	viaU1 := n.link(u1, v, 1.5)
	n.link(u2, v, 0.5)
	n.link(v, tgt, 0.5)
	terms := n.goalTerms()
	if terms == nil {
		t.Fatal("the bound is not admissible on the plane network")
	}
	bound := goalBound(n.Pos, terms, tgt)
	if d1, d2 := 2.0+1.5, 3.0+0.5; d1 != d2 {
		t.Fatalf("the predecessors do not tie: %v vs %v", d1, d2)
	}
	if f1, f2 := 2+bound.at(u1), 3+bound.at(u2); !(f1 > f2) {
		t.Fatalf("the bound pops u1 (key %v) before u2 (key %v), as Dijkstra does", f1, f2)
	}
	st := AcquireSearch()
	defer st.Release()
	requireNaivePath(t, "tie", n, st, s, tgt, nil, nil, true)
	if st.PrevLink(v) != viaU1 {
		t.Fatalf("v's predecessor link is %d, want %d (from u1)", st.PrevLink(v), viaU1)
	}

	// A tie at the target over tight links: u1 and u2 reach it over straight
	// links weighted at exactly the free-space delay, so without the slack
	// both would key at the target's own distance and the node tie-break
	// would pop u2, then the target, before u1.
	tight := planeNet([2]float64{300, 200}, [2]float64{0, 0}, [2]float64{0, 200}, [2]float64{300, 0})
	const ts, tt, tu2, tu1 = 0, 1, 2, 3
	tight.link(ts, tu1, 1)
	last := tight.AddLink(tu1, tt, LinkISL, 1)
	w1, w2 := tight.Links[last].OneWayMs, tight.Pos[tu2].Distance(tight.Pos[tt])*geo.MsPerKm
	d2 := 1 + w1 - w2
	for d2+w2 != 1+w1 { // step d2 by ulps until the sums tie exactly
		toward := math.Inf(1)
		if d2+w2 > 1+w1 {
			toward = math.Inf(-1)
		}
		d2 = math.Nextafter(d2, toward)
	}
	tight.link(ts, tu2, d2)
	tight.AddLink(tu2, tt, LinkISL, 1)
	if !(1 < d2) {
		t.Fatalf("u1 at 1 ms does not settle before u2 at %v ms", d2)
	}
	requireNaivePath(t, "tight tie", tight, st, ts, tt, nil, nil, true)
	if st.PrevLink(tt) != last {
		t.Fatalf("the target's predecessor link is %d, want %d (from u1)", st.PrevLink(tt), last)
	}

	// The same tie under the tree bound, where links weigh exactly their
	// distances in the tree: u1 and u2 reach the target over links that are
	// their tree distances, so without the slack both would key at the
	// target's own distance (3.5 ms, dyadic sums that do not round) and the
	// node tie-break would pop u2, then the target, before u1 — which
	// Dijkstra, settling u1 at 1 ms before u2 at 1.5 ms, keeps.
	const ks, ku2, kt, ku1 = 0, 1, 2, 3
	tree := planeNet([2]float64{0, 0}, [2]float64{20, 20}, [2]float64{40, 0}, [2]float64{20, -20})
	tree.link(ks, ku1, 1)
	tree.link(ks, ku2, 1.5)
	fromU1 := tree.link(ku1, kt, 2.5)
	tree.link(ku2, kt, 2)
	dist, row := searchTree(tree, kt, nil, nil)
	if dist[ku1] != 2.5 || dist[ku2] != 2 || 1+dist[ku1] != 1.5+dist[ku2] {
		t.Fatalf("the tree does not weigh the last links exactly: %v", dist)
	}
	requireNaivePath(t, "tree-tight tie", tree, st, ks, kt, nil, row, true)
	if st.PrevLink(kt) != fromU1 {
		t.Fatalf("the target's predecessor link is %d, want %d (from u1)", st.PrevLink(kt), fromU1)
	}
}

// TestGoalGate: the bound directs a search only where it is admissible and
// consistent. A link shorter than the free-space delay between its ends (a
// wormhole), a zero-weight link and a node inside the Earth each close the
// gate, and the search is then plain Dijkstra — which the wormhole network
// needs, since the bound would settle the target over the detour first.
// Where the gate is closed, a tree row is refused too. The verdict follows
// the network: a freeze after a new link re-decides it, and a Clone decides
// its own.
func TestGoalGate(t *testing.T) {
	st := AcquireSearch()
	defer st.Release()

	const s, a, b, c, tgt = 0, 1, 2, 3, 4
	n := planeNet([2]float64{0, 0}, [2]float64{10, 0}, [2]float64{1000, 0}, [2]float64{505, 50}, [2]float64{1010, 0})
	n.link(s, a, 0.1)
	n.link(b, tgt, 0.1)
	n.link(s, c, 1.7)
	n.link(c, tgt, 1.7)
	// Each case runs twice: bounded by free space, and given the network's
	// own tree rooted at the target — a row the gate must refuse as well.
	both := func(tag string, n *Network, src, dst int32, goal bool) {
		t.Helper()
		_, row := searchTree(n, dst, nil, nil)
		requireNaivePath(t, tag, n, st, src, dst, nil, nil, goal)
		requireNaivePath(t, tag+" with its tree", n, st, src, dst, nil, row, goal)
	}
	both("no wormhole", n, s, tgt, true)
	clone := n.Clone()
	n.link(a, b, 0.01)
	both("wormhole", n, s, tgt, false)
	if n.goalTerms() != nil {
		t.Fatal("the gate stayed open after a wormhole link")
	}
	both("clone before the wormhole", clone, s, tgt, true)
	clone.link(s, tgt, 0)
	both("zero-weight link", clone, s, tgt, false)

	inside := planeNet([2]float64{0, 0}, [2]float64{100, 0})
	inside.AddNode(NodeCity, geo.Vec3{X: 6000}, "")
	inside.link(0, 1, 1)
	inside.link(1, 2, 5)
	both("node inside the Earth", inside, 0, 1, false)

	if fuzzNet(gridBytes(4, 4)).goalTerms() != nil || randomNet(rand.New(rand.NewSource(1)), 20, 10).goalTerms() != nil {
		t.Fatal("the zero-position test graphs must keep plain Dijkstra")
	}
}

// TestGoalBoundConcurrentFirstUse: goroutines racing to a fresh network's
// first goal-directed searches — one building the node terms and deciding
// the gate while the others wait on it — all find the paths the same network
// built again and searched one at a time finds.
func TestGoalBoundConcurrentFirstUse(t *testing.T) {
	b := phase1Builder(t)
	at := geo.Epoch.Add(time.Hour)
	for _, hybrid := range []bool{false, true} {
		build := func() *Network {
			n := b.At(at)
			if hybrid {
				n = b.Hybrid(n, at)
			}
			return n
		}
		fresh, serial := build(), build()
		got := make([]Path, fresh.NumCity)
		var wg sync.WaitGroup
		for c := range got {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				got[c], _ = fresh.ShortestPath(fresh.CityNode(0), fresh.CityNode(c))
			}(c)
		}
		wg.Wait()
		for c := range got {
			want, _ := serial.ShortestPath(serial.CityNode(0), serial.CityNode(c))
			requireSamePaths(t, "concurrent first use", got[c:c+1], []Path{want})
		}
	}
}
