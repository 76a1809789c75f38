package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"leosim/internal/geo"
)

// The differential battery for nodes relaxed through (Search): every label
// compared under math.Float64bits and every predecessor link, against
// naiveDijkstra, on networks laid out as the Builder lays them out —
// satellites first, NumSat set, ground nodes after — and on hand-built ones
// that plant the ties the rule has to break.

// bentPipeNet builds a random network laid out like a built one: sats
// satellites (NumSat = sats), then ground nodes, each linked to one to four
// random satellites; isls random satellite pairs and fibers random ground
// pairs are linked too. Weights are quantized (1–4 ms in 0.5 ms steps), so
// labels tie constantly, at relays and at satellites alike.
func bentPipeNet(r *rand.Rand, sats, ground, isls, fibers int) *Network {
	n := &Network{}
	for i := 0; i < sats; i++ {
		n.AddNode(NodeSatellite, geo.Vec3{}, "")
	}
	n.NumSat = sats
	for i := 0; i < ground; i++ {
		kind := NodeRelay
		if i%4 == 0 {
			kind = NodeCity
		}
		n.AddNode(kind, geo.Vec3{}, "")
	}
	weight := func() float64 { return 1 + 0.5*float64(r.Intn(7)) }
	add := func(a, b int32, kind LinkKind) {
		n.Links = append(n.Links, Link{A: a, B: b, Kind: kind, CapGbps: 1, OneWayMs: weight()})
	}
	for g := int32(sats); g < int32(n.N()); g++ {
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
		if a, b := int32(sats+r.Intn(ground)), int32(sats+r.Intn(ground)); a != b {
			add(a, b, LinkFiber)
		}
	}
	n.csrValid.Store(false)
	return n
}

// requireNaiveTree holds the last search on st, a full tree from src, to
// naiveDijkstra's under the same bans, transit rule and Cost: every node's label
// bit for bit and its predecessor link, and every path's weight
// (requirePathWeighs). It returns how many nodes the search relaxed through.
func requireNaiveTree(t *testing.T, tag string, n *Network, st *SearchState, src int32,
	banned map[int32]bool, transit bool, cost func(int32) float64) (passed int) {
	t.Helper()
	dist, prev := treeOf(st, n.N())
	wantDist, wantPrev := naiveDijkstra(n, src, nil, banned, transit, cost)
	compareAll(t, n, dist, wantDist, prev, wantPrev, tag)
	for v := int32(0); v < int32(n.N()); v++ {
		requirePathWeighs(t, tag, st, v, cost != nil)
		if st.Reached(v) && st.node[v].pos == posPassed {
			passed++
		}
	}
	return passed
}

// TestRelayThroughDifferential runs full trees, trees under bans,
// satellites-only transit and a Cost hook, searches stopped at a target and at target lists, and views
// under a cut on random bent-pipe networks with fiber between ground nodes,
// and holds each to naiveDijkstra. Full trees must relax ground nodes
// through, and only ground nodes; under satellites-only transit a ground node
// takes its label and relaxes nothing; a Cost hook that never
// prices a link at 0 keeps relaxing through, one that does falls back to
// queuing every node.
func TestRelayThroughDifferential(t *testing.T) {
	for seed := int64(700); seed < 740; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := bentPipeNet(r, 8+r.Intn(20), 10+r.Intn(40), r.Intn(30), r.Intn(8))
		src := int32(n.NumSat + r.Intn(n.N()-n.NumSat))
		st := AcquireSearch()
		tag := fmt.Sprintf("seed %d", seed)

		n.Search(st, SearchSpec{Src: src, Target: NoTarget})
		if requireNaiveTree(t, tag+" full tree", n, st, src, nil, false, nil) == 0 {
			t.Fatalf("%s: the full tree relaxed no node through", tag)
		}
		for v := int32(0); v < int32(n.NumSat); v++ {
			if st.Reached(v) && !st.Settled(v) {
				t.Fatalf("%s: satellite %d reached but not settled by a full tree", tag, v)
			}
		}

		banned := randomBans(r, n, 0.2)
		for li := range banned {
			st.BanLink(li)
		}
		n.Search(st, SearchSpec{Src: src, Target: NoTarget})
		requireNaiveTree(t, tag+" banned", n, st, src, banned, false, nil)
		st.ClearBans()

		n.Search(st, SearchSpec{Src: src, Target: NoTarget, SatTransit: true})
		requireNaiveTree(t, tag+" satellite transit", n, st, src, nil, true, nil)

		scale := make([]float64, len(n.Links))
		for li := range scale {
			scale[li] = float64(1 + r.Intn(3))
		}
		positive := func(li int32) float64 { return n.Links[li].OneWayMs * scale[li] }
		n.Search(st, SearchSpec{Src: src, Target: NoTarget, Cost: positive})
		if requireNaiveTree(t, tag+" positive cost", n, st, src, nil, false, positive) == 0 {
			t.Fatalf("%s: a search under a positive Cost hook relaxed no node through", tag)
		}
		free := func(li int32) float64 { return n.Links[li].OneWayMs * float64(li%3) } // every third link free
		n.Search(st, SearchSpec{Src: src, Target: NoTarget, Cost: free})
		if passed := requireNaiveTree(t, tag+" free links", n, st, src, nil, false, free); passed != 0 {
			t.Fatalf("%s: a search under a Cost hook with free links relaxed %d nodes through, want the plain loop's 0", tag, passed)
		}
		st.Release()

		cities := []int32{}
		for v := int32(n.NumSat); v < int32(n.N()); v += 4 {
			cities = append(cities, v)
		}
		checkSearch(t, n, SearchSpec{Src: src, Target: cities[r.Intn(len(cities))]}, nil, tag+" target")
		checkSearch(t, n, SearchSpec{Src: src, Target: NoTarget, Targets: cities[:1+r.Intn(len(cities))]}, banned, tag+" targets")
		checkSearch(t, n, SearchSpec{Src: src, Target: NoTarget, Targets: cities, SatTransit: true, Cost: positive}, banned, tag+" targets, transit, cost")
		var cut Cut
		for li := range n.Links {
			if r.Intn(5) == 0 {
				cut = append(cut, int32(li))
			}
		}
		checkView(t, n, cut, src)
	}
}

// TestRelayTiesPlanted builds by hand the ties a node relaxed through meets,
// each on three satellites a, b, x and two ground nodes: the source c and a
// relay r.
//   - "equal sums at a relay": r's two satellites offer it one label (dyadic
//     weights add exactly), a from nearer the source, so a must stay r's
//     predecessor although b relaxes r later.
//   - "a relay ties a queued node": r, relaxed through while a pops, offers x
//     the label that b, popping later but nearer the source, offers too: b
//     takes over.
//   - "second pass": r is relaxed through from a at 1, then lowered by b to
//     1 − 2⁻⁵¹ and relaxed through again. Its two parallel links to x weigh 4
//     and 4 + 2⁻⁵⁰; the first pass leaves x at 5 over the lighter, second
//     link, and on the second pass both sums round to 5 as well. Plain
//     Dijkstra pops r once, at 1 − 2⁻⁵¹, and keeps the first link, so the
//     first link must take over: the tie rule's link clause.
func TestRelayTiesPlanted(t *testing.T) {
	const a, b, x, c, r = 0, 1, 2, 3, 4
	type link struct {
		a, b int32
		ms   float64
	}
	for _, tc := range []struct {
		name  string
		links []link
		prev  map[int32]int32 // node → the predecessor link plain Dijkstra gives it
	}{
		{"equal sums at a relay", []link{{c, a, 1}, {c, b, 1.5}, {a, r, 1.5}, {b, r, 1}, {r, x, 1}}, map[int32]int32{r: 2}},
		{"a relay ties a queued node", []link{{c, a, 1}, {c, b, 1.5}, {a, r, 1}, {r, x, 1.5}, {b, x, 2}}, map[int32]int32{x: 4}},
		{"second pass", []link{{c, a, 0.25}, {c, b, 0.5}, {a, r, 0.75}, {b, r, 0.5 - 0x1p-51}, {r, x, 4 + 0x1p-50}, {r, x, 4}}, map[int32]int32{r: 3, x: 4}},
	} {
		n := &Network{}
		for i := 0; i < 3; i++ {
			n.AddNode(NodeSatellite, geo.Vec3{}, "")
		}
		n.NumSat = 3
		n.AddNode(NodeCity, geo.Vec3{}, "c")
		n.AddNode(NodeRelay, geo.Vec3{}, "r")
		for _, l := range tc.links {
			n.link(l.a, l.b, l.ms)
		}
		st := AcquireSearch()
		n.Search(st, SearchSpec{Src: c, Target: NoTarget})
		if requireNaiveTree(t, tc.name, n, st, c, nil, false, nil) == 0 {
			t.Fatalf("%s: r was not relaxed through", tc.name)
		}
		for v, li := range tc.prev {
			if st.PrevLink(v) != li {
				t.Fatalf("%s: node %d's predecessor link is %d, want %d", tc.name, v, st.PrevLink(v), li)
			}
		}
		st.Release()
	}
}

// TestZeroCostFallsBackToPopOrder: a Cost hook that prices a link at 0 gives
// a node the label of the node it came from, and plain Dijkstra then pops in
// an order that is not (dist, node): u (node 5) pops at 1 and reaches node 2
// over a free link at 1, after itself. Both offer z the same label; Dijkstra
// keeps u, the first popped, where the (dist, node) rule would pick node 2.
// The kernel must notice and answer as plain Dijkstra does.
func TestZeroCostFallsBackToPopOrder(t *testing.T) {
	n := &Network{}
	for i := 0; i < 7; i++ {
		n.AddNode(NodeRelay, geo.Vec3{}, "")
	}
	const src, x, u, z = 0, 2, 5, 6
	n.link(src, u, 1)
	free := n.link(u, x, 1)
	viaU := n.link(u, z, 1)
	n.link(x, z, 1)
	cost := func(li int32) float64 {
		if li == free {
			return 0
		}
		return n.Links[li].OneWayMs
	}
	st := AcquireSearch()
	defer st.Release()
	n.Search(st, SearchSpec{Src: src, Target: NoTarget, Cost: cost})
	requireNaiveTree(t, "free link", n, st, src, nil, false, cost)
	if st.PrevLink(z) != viaU {
		t.Fatalf("z's predecessor link is %d, want %d through the first popped candidate", st.PrevLink(z), viaU)
	}
}

// TestRelayChains: ground nodes joined to ground nodes, the one way a node
// relaxed through reaches another ground node. Two cities joined by a chain
// of relays, as the oracle's hop-table overflow test builds it (NumSat 0:
// every node but the source may be relaxed through), and satellites bridged
// by relays with fiber between consecutive relays: full trees from either
// end and a search stopped at the far city hold to naiveDijkstra, and along
// the chain every other relay is relaxed through and the rest queue.
func TestRelayChains(t *testing.T) {
	chain := &Network{NumCity: 2}
	a := chain.AddNode(NodeCity, geo.Vec3{}, "a")
	b := chain.AddNode(NodeCity, geo.Vec3{X: 2001}, "b")
	at := a
	for i := 1; i <= 2000; i++ {
		rl := chain.AddNode(NodeRelay, geo.Vec3{X: float64(i)}, "r")
		chain.AddLink(at, rl, LinkGSL, 1)
		at = rl
	}
	chain.AddLink(at, b, LinkGSL, 1)

	bridged := &Network{}
	for i := 0; i < 30; i++ {
		bridged.AddNode(NodeSatellite, geo.Vec3{}, "")
	}
	bridged.NumSat = 30
	for i := int32(0); i < 60; i++ {
		rl := bridged.AddNode(NodeRelay, geo.Vec3{}, "")
		bridged.link(rl, i/2, 1.5)
		bridged.link(rl, (i/2+1)%30, 1)
		if i > 0 {
			bridged.link(rl-1, rl, 0.5) // fiber
		}
	}

	st := AcquireSearch()
	defer st.Release()
	for _, c := range []struct {
		name     string
		n        *Network
		src, dst int32
	}{{"relay chain", chain, a, b}, {"relay chain, reversed", chain, b, a}, {"bridged", bridged, 30, 89}, {"bridged, reversed", bridged, 89, 30}} {
		c.n.Search(st, SearchSpec{Src: c.src, Target: NoTarget})
		if requireNaiveTree(t, c.name, c.n, st, c.src, nil, false, nil) == 0 {
			t.Fatalf("%s: no node relaxed through", c.name)
		}
		checkSearch(t, c.n, SearchSpec{Src: c.src, Target: c.dst}, nil, c.name+", stopped")
	}
	chain.Search(st, SearchSpec{Src: a, Target: NoTarget})
	for v := int32(2); v < int32(chain.N()); v++ {
		if passed := st.node[v].pos == posPassed; passed != (v%2 == 0) {
			t.Fatalf("relay %d, hop %d of the chain: relaxed through = %v", v, v-1, passed)
		}
	}
}

// TestRelayThroughOnSnapshot holds a built bent-pipe snapshot and its hybrid
// to naiveDijkstra: full trees from two cities on every label, and searches
// for one city — goal-directed by the free-space bound, their relays relaxed
// through — on the target's label, path and every label along it. Given the
// target's tree instead, the search relaxes its relays and aircraft through
// as well, and queues none of them.
func TestRelayThroughOnSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("naive trees over a snapshot")
	}
	b := phase1Builder(t)
	bp := b.At(geo.Epoch)
	st := AcquireSearch()
	defer st.Release()
	for _, n := range []*Network{bp, b.Hybrid(bp, geo.Epoch)} {
		for _, city := range []int{0, n.NumCity - 1} {
			src := n.CityNode(city)
			n.Search(st, SearchSpec{Src: src, Target: NoTarget})
			if passed := requireNaiveTree(t, "snapshot", n, st, src, nil, false, nil); passed < n.NumRelay/2 {
				t.Fatalf("a full tree relaxed %d nodes through, of %d relays", passed, n.NumRelay)
			}
		}
		src, dst := n.CityNode(3), n.CityNode(n.NumCity-4)
		requireNaivePath(t, "snapshot", n, st, src, dst, nil, nil, true)
		_, row := searchTree(n, dst, nil, false)
		requireNaivePath(t, "snapshot, directed by the tree", n, st, src, dst, nil, row, true)
		passed := 0
		for v := int32(n.NumSat + n.NumCity); v < int32(n.N()); v++ {
			if !st.Reached(v) {
				continue
			}
			if st.node[v].pos != posPassed {
				t.Fatalf("a tree-directed search queued %v %d", n.Kind[v], v)
			}
			passed++
		}
		if passed == 0 {
			t.Fatal("a tree-directed search reached no relay or aircraft")
		}
	}
}

// TestTreeDirectedRerun plants a tree-directed search that takes the
// zero-increment rerun: all nodes sit at one point 550 km up, so the
// free-space gate is open, and relay r joins satellites a and b, a by a link
// of 1e-20 ms, far below the last bit of a's 1,000 ms label. Relaxing r from
// a leaves the label where it was, so Search runs the search again queuing
// every node, r too, which the tree row over the satellites and cities does
// not reach: the rerun must be directed by the free-space bound, and its
// target's path must be naiveDijkstra's.
func TestTreeDirectedRerun(t *testing.T) {
	const a, b, s, d, r = 0, 1, 2, 3, 4
	n := &Network{NumSat: 2, NumCity: 2, NumRelay: 1}
	at := geo.LatLon{Alt: 550}.ToECEF()
	for _, kind := range []NodeKind{NodeSatellite, NodeSatellite, NodeCity, NodeCity, NodeRelay} {
		n.AddNode(kind, at, "")
	}
	n.link(s, a, 1000)
	n.link(a, r, 1e-20)
	n.link(r, b, 1)
	n.link(b, d, 1)
	if n.goalTerms() == nil || n.RowNodes() != 4 {
		t.Fatalf("gate open = %v, rows of %d nodes: want open and 4", n.goalTerms() != nil, n.RowNodes())
	}
	st := AcquireSearch()
	defer st.Release()
	n.Search(st, SearchSpec{Src: d, Target: NoTarget})
	row := make([]int32, n.RowNodes())
	st.TreeRow(row)
	n.Search(st, SearchSpec{Src: s, Target: d, Tree: row})
	if st.goal != d || st.tree != nil {
		t.Fatalf("the rerun's goal %d, directed by the tree = %v: want %d and false", st.goal, st.tree != nil, d)
	}
	wd, wp := naiveDijkstra(n, s, []int32{d}, nil, false, nil)
	p, ok := st.Path(d)
	q, _ := n.extractPath(s, d, wd, wp)
	if !ok || st.Dist(d) != wd[d] || !slices.Equal(p.Links, q.Links) {
		t.Fatalf("%v over %v (%v ms, ok=%v), reference %v over %v (%v ms)", p.Nodes, p.Links, st.Dist(d), ok, q.Nodes, q.Links, wd[d])
	}
}
