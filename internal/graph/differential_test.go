package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"leosim/internal/geo"
	"leosim/internal/telemetry"
)

// This file checks the allocation-free kernel against a deliberately naive
// reference Dijkstra (linear scan, no heap, no stamping, map-based bans) on
// randomized graphs. Link weights are quantized to small integers so
// equal-distance ties are common: the comparison is exact — distances,
// predecessor links, and extracted paths must be bit-identical, which pins
// down the kernel's (dist, node) tie-break as well as its correctness.

// extractPath walks predecessor links (as returned by Dijkstra or the naive
// reference) from dst back to src.
func (n *Network) extractPath(src, dst int32, dist []float64, prevLink []int32) (Path, bool) {
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	return n.walk(src, dst, func(v int32) (int32, int32) { return prevLink[v], -1 })
}

// linkSum adds p's link delays from its source on, the order a search adds
// its arc weights in.
func linkSum(n *Network, p Path) float64 {
	var ms float64
	for _, li := range p.Links {
		ms += n.Links[li].OneWayMs
	}
	return ms
}

// requirePathWeighs holds st's path to v, where its last search reached v, to
// weighing its own links (DESIGN.md §7, "A path is its links"): its OneWayMs
// is linkSum's under math.Float64bits, and, where no Cost hook priced the
// search (cost false), Dist(v)'s too.
func requirePathWeighs(t *testing.T, tag string, st *SearchState, v int32, cost bool) {
	t.Helper()
	p, ok := st.Path(v)
	if ok != st.Reached(v) {
		t.Fatalf("%s: path to %d ok=%v, reached=%v", tag, v, ok, st.Reached(v))
	}
	if !ok {
		return
	}
	if sum := linkSum(st.net, p); math.Float64bits(p.OneWayMs) != math.Float64bits(sum) {
		t.Fatalf("%s: path to %d over %v weighs %v ms, its links sum to %v", tag, v, p.Links, p.OneWayMs, sum)
	}
	if !cost && math.Float64bits(p.OneWayMs) != math.Float64bits(st.Dist(v)) {
		t.Fatalf("%s: path to %d over %v weighs %v ms, its label is %v", tag, v, p.Links, p.OneWayMs, st.Dist(v))
	}
}

// treeOf reads every node's distance (+Inf if unreached) and predecessor
// link (-1 at the source or if unreached) off st's last search.
func treeOf(st *SearchState, nn int) (dist []float64, prevLink []int32) {
	dist, prevLink = make([]float64, nn), make([]int32, nn)
	for v := range dist {
		dist[v], prevLink[v] = st.Dist(int32(v)), st.PrevLink(int32(v))
	}
	return dist, prevLink
}

// searchTree runs the kernel's full tree from src with every link of banned
// skipped, satellites-only where transit is set (SearchSpec.SatTransit), and
// returns treeOf it.
func searchTree(n *Network, src int32, banned map[int32]bool, transit bool) (dist []float64, prevLink []int32) {
	st := AcquireSearch()
	defer st.Release()
	for li := range banned {
		st.BanLink(li)
	}
	n.Search(st, SearchSpec{Src: src, Target: NoTarget, SatTransit: transit})
	return treeOf(st, n.N())
}

// naiveDijkstra mirrors the kernel's semantics with O(n²) linear scans:
// settle the unsettled reached node with minimal (dist, node), and stop once
// every node of a non-empty targets list is settled; under transit a settled
// non-source node forwards only if it is a satellite; relaxation walks the
// link list in index order and accepts strict improvements only.
func naiveDijkstra(n *Network, src int32, targets []int32, bannedLinks map[int32]bool,
	transit bool, cost func(int32) float64) (dist []float64, prev []int32) {
	nn := n.N()
	dist = make([]float64, nn)
	prev = make([]int32, nn)
	settled := make([]bool, nn)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	unsettled := map[int32]bool{}
	for _, v := range targets {
		unsettled[v] = true
	}
	dist[src] = 0
	for {
		v := int32(-1)
		for u := int32(0); u < int32(nn); u++ {
			if settled[u] || math.IsInf(dist[u], 1) {
				continue
			}
			if v < 0 || dist[u] < dist[v] {
				v = u
			}
		}
		if v < 0 {
			break
		}
		settled[v] = true
		if unsettled[v] {
			if delete(unsettled, v); len(unsettled) == 0 {
				break
			}
		}
		if v != src && transit && n.Kind[v] != NodeSatellite {
			continue
		}
		for li := range n.Links {
			l := n.Links[li]
			var to int32
			switch v {
			case l.A:
				to = l.B
			case l.B:
				to = l.A
			default:
				continue
			}
			if bannedLinks[int32(li)] {
				continue
			}
			w := l.OneWayMs
			if cost != nil {
				w = cost(int32(li))
				if math.IsInf(w, 1) {
					continue
				}
			}
			if nd := dist[v] + w; nd < dist[to] {
				dist[to] = nd
				prev[to] = int32(li)
			}
		}
	}
	return dist, prev
}

// randomNet builds a connected random graph with quantized weights (1–4 ms in
// 0.5 ms steps) so shortest paths tie constantly. Roughly a third of the
// nodes are ground-side, exercising transit restrictions.
func randomNet(r *rand.Rand, nodes, extraLinks int) *Network {
	n := &Network{}
	for i := 0; i < nodes; i++ {
		kind := NodeSatellite
		if r.Intn(3) == 0 {
			kind = NodeCity
		}
		n.AddNode(kind, geo.Vec3{}, "")
	}
	addW := func(a, b int32, w float64) {
		n.Links = append(n.Links, Link{A: a, B: b, Kind: LinkGSL, CapGbps: 1 + r.Float64()*4, OneWayMs: w})
		n.csrValid.Store(false)
	}
	weight := func() float64 { return 1 + 0.5*float64(r.Intn(7)) }
	// A random spanning tree keeps the graph connected …
	for v := int32(1); v < int32(nodes); v++ {
		addW(v, int32(r.Intn(int(v))), weight())
	}
	// … plus extra random links (parallel links allowed — the kernel must
	// handle them, they arise from multi-beam GSLs).
	for i := 0; i < extraLinks; i++ {
		a, b := int32(r.Intn(nodes)), int32(r.Intn(nodes))
		if a == b {
			continue
		}
		addW(a, b, weight())
	}
	return n
}

func randomBans(r *rand.Rand, n *Network, frac float64) map[int32]bool {
	banned := map[int32]bool{}
	for li := range n.Links {
		if r.Float64() < frac {
			banned[int32(li)] = true
		}
	}
	return banned
}

func compareAll(t *testing.T, n *Network, dist, wantDist []float64, prev, wantPrev []int32, tag string) {
	t.Helper()
	for v := range dist {
		if math.Float64bits(dist[v]) != math.Float64bits(wantDist[v]) {
			t.Fatalf("%s: dist[%d] = %v, reference %v", tag, v, dist[v], wantDist[v])
		}
		if prev[v] != wantPrev[v] {
			t.Fatalf("%s: prevLink[%d] = %d, reference %d (dist %v)", tag, v, prev[v], wantPrev[v], dist[v])
		}
	}
}

// checkSearch runs one kernel search with every restriction at once — link
// bans, satellites-only transit, a Cost hook, a target and a target list — and
// holds the outcome to naiveDijkstra exactly: a full tree's distance and
// predecessor of every node; a stopped search's of every node it settled and
// of every node nearer than its farthest wanted node (which it settled or
// relaxed through), and no reached node below the full tree's distance
// (the rest are tentative, and a node relaxed through hands its neighbours
// labels before plain Dijkstra's pop order would). Every wanted node must be
// settled with the full tree's distance, predecessor and path, the kernel's
// and the reference's alike. Every reached node's path must weigh its links
// and, with no Cost hook, its label (requirePathWeighs).
func checkSearch(t *testing.T, n *Network, spec SearchSpec, bannedLinks map[int32]bool, tag string) {
	t.Helper()
	wanted := spec.Targets
	if spec.Target != NoTarget {
		wanted = append([]int32{spec.Target}, wanted...)
	}
	st, tree := AcquireSearch(), AcquireSearch()
	defer st.Release()
	defer tree.Release()
	for li := range bannedLinks {
		st.BanLink(li)
		tree.BanLink(li)
	}
	if !n.Search(st, spec) {
		t.Fatalf("%s: search did not complete", tag)
	}
	dist, prev := treeOf(st, n.N())
	n.Search(tree, SearchSpec{Src: spec.Src, Target: NoTarget, SatTransit: spec.SatTransit, Cost: spec.Cost})
	treeDist, treePrev := naiveDijkstra(n, spec.Src, nil, bannedLinks, spec.SatTransit, spec.Cost)
	if len(wanted) == 0 {
		compareAll(t, n, dist, treeDist, prev, treePrev, tag)
	}
	farthest := math.Inf(-1) // the farthest reachable wanted node's distance
	for _, v := range wanted {
		if !math.IsInf(treeDist[v], 1) {
			farthest = math.Max(farthest, treeDist[v])
		}
	}
	if st.goal != NoTarget {
		farthest = math.Inf(-1) // the bound settles fewer nodes
	}
	for v := int32(0); v < int32(n.N()); v++ {
		if (st.Settled(v) || treeDist[v] < farthest) && (dist[v] != treeDist[v] || prev[v] != treePrev[v]) {
			t.Fatalf("%s: node %d (settled=%v, farthest wanted at %v): (%v, %d), reference tree (%v, %d)",
				tag, v, st.Settled(v), farthest, dist[v], prev[v], treeDist[v], treePrev[v])
		}
		if dist[v] < treeDist[v] {
			t.Fatalf("%s: node %d reached at %v, below the reference tree's %v", tag, v, dist[v], treeDist[v])
		}
	}
	for _, v := range wanted {
		if st.Dist(v) != tree.Dist(v) || st.PrevLink(v) != tree.PrevLink(v) ||
			st.Dist(v) != treeDist[v] || st.PrevLink(v) != treePrev[v] {
			t.Fatalf("%s: wanted node %d: (%v, %d), full tree (%v, %d), reference tree (%v, %d)", tag, v,
				st.Dist(v), st.PrevLink(v), tree.Dist(v), tree.PrevLink(v), treeDist[v], treePrev[v])
		}
		if st.Settled(v) != tree.Reached(v) {
			t.Fatalf("%s: wanted node %d settled=%v, reached by the full tree=%v", tag, v, st.Settled(v), tree.Reached(v))
		}
		p, ok := st.Path(v)
		q, treeOK := tree.Path(v)
		if ok != treeOK || p.OneWayMs != q.OneWayMs || !slices.Equal(p.Nodes, q.Nodes) || !slices.Equal(p.Links, q.Links) {
			t.Fatalf("%s: path to wanted node %d: %v (%v ms, ok=%v), full tree %v (%v ms, ok=%v)",
				tag, v, p.Links, p.OneWayMs, ok, q.Links, q.OneWayMs, treeOK)
		}
	}
	for v := int32(0); v < int32(n.N()); v++ {
		requirePathWeighs(t, tag, st, v, spec.Cost != nil)
	}
}

// TestDifferentialCombined drives the indexed heap's decrease-key path under
// every restriction the kernel supports, in all combinations: dense random
// graphs with tied quantized weights relabel frontier nodes constantly.
func TestDifferentialCombined(t *testing.T) {
	for seed := int64(500); seed < 564; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomNet(r, 25+r.Intn(40), 120)
		src := int32(r.Intn(n.N()))
		target := NoTarget
		var bannedLinks map[int32]bool
		var cost func(int32) float64
		if seed&1 != 0 {
			bannedLinks = randomBans(r, n, 0.2)
		}
		if seed&8 != 0 {
			scale := make([]float64, len(n.Links))
			for li := range scale {
				scale[li] = float64(r.Intn(5)) // 0: a free link; 4: excluded
			}
			cost = func(li int32) float64 {
				if scale[li] == 4 {
					return math.Inf(1)
				}
				return n.Links[li].OneWayMs * scale[li]
			}
		}
		if seed&16 != 0 {
			target = int32(r.Intn(n.N()))
		}
		var targets []int32
		if seed&32 != 0 {
			for i := r.Intn(5); i >= 0; i-- {
				targets = append(targets, int32(r.Intn(n.N())))
			}
			targets = append(targets, targets[0], src) // a duplicate, and the source
		}
		checkSearch(t, n, SearchSpec{Src: src, Target: target, Targets: targets, SatTransit: seed&4 != 0, Cost: cost}, bannedLinks, "combined")
	}
}

// TestDecreaseKeyChain relabels every node but the source's neighbour on
// purpose: the source reaches all nodes directly at a high price, then a
// cheap chain undercuts each label in turn while the node is still queued.
// Node 40 is a city, which breaks the chain under satellites-only transit.
func TestDecreaseKeyChain(t *testing.T) {
	n := &Network{}
	const nodes = 200
	for i := 0; i < nodes; i++ {
		kind := NodeSatellite
		if i == 40 {
			kind = NodeCity
		}
		n.AddNode(kind, geo.Vec3{}, "")
	}
	add := func(a, b int32, w float64) {
		n.Links = append(n.Links, Link{A: a, B: b, Kind: LinkISL, CapGbps: 1, OneWayMs: w})
	}
	for v := int32(1); v < nodes; v++ {
		add(0, v, 1000-float64(v)) // farther along the chain looks cheaper at first
	}
	for v := int32(1); v+1 < nodes; v++ {
		add(v, v+1, 0.5)
	}
	n.csrValid.Store(false)
	checkSearch(t, n, SearchSpec{Src: 0, Target: NoTarget}, nil, "chain")
	checkSearch(t, n, SearchSpec{Src: 0, Target: nodes / 2, SatTransit: true}, map[int32]bool{3: true}, "chain restricted")
}

// TestSearchStopsAtLastTarget: a search for a target list settles nothing past
// its last wanted node. On a chain the nodes beyond it are not even reached;
// on a unit grid every node strictly farther than the last target is left
// unsettled and every nearer node holds the full tree's labels, settled or
// relaxed through (every other node of these hand-built networks, which
// leave NumSat 0, is relaxed through), and the targets' labels are the full
// tree's.
func TestSearchStopsAtLastTarget(t *testing.T) {
	chain := &Network{}
	for i := 0; i < 20; i++ {
		chain.AddNode(NodeSatellite, geo.Vec3{}, "")
	}
	for v := int32(0); v+1 < 20; v++ {
		chain.Links = append(chain.Links, Link{A: v, B: v + 1, Kind: LinkISL, CapGbps: 1, OneWayMs: 1})
	}
	chain.csrValid.Store(false)
	st := AcquireSearch()
	defer st.Release()
	chain.Search(st, SearchSpec{Src: 0, Target: NoTarget, Targets: []int32{7, 3, 7}})
	for v := int32(0); v < 20; v++ {
		// 0 pops and relaxes 1 through, which queues 2; 3 is wanted and
		// queues; 5 pops after 4 is relaxed through, and so does 7 after 6.
		passed := v == 1 || v == 4 || v == 6
		if v <= 7 && (!st.Reached(v) || st.Dist(v) != float64(v) || st.Settled(v) == passed) {
			t.Fatalf("chain: node %d up to the last target: settled=%v at %v", v, st.Settled(v), st.Dist(v))
		}
		if v > 7 && st.Reached(v) {
			t.Fatalf("chain: node %d beyond the last target 7 was reached", v)
		}
	}

	const rows, cols = 7, 8
	grid := fuzzNet(gridBytes(rows, cols))
	src := int32(2*cols + 3)
	tree := AcquireSearch()
	defer tree.Release()
	grid.Search(tree, SearchSpec{Src: src, Target: NoTarget})
	targets := []int32{src + 1, 5*cols + 1, src, 5*cols + 1}
	last := tree.Dist(5*cols + 1)
	grid.Search(st, SearchSpec{Src: src, Target: NoTarget, Targets: targets})
	for _, v := range targets {
		if st.Dist(v) != tree.Dist(v) || st.PrevLink(v) != tree.PrevLink(v) {
			t.Fatalf("grid: target %d at (%v, %d), full tree (%v, %d)", v, st.Dist(v), st.PrevLink(v), tree.Dist(v), tree.PrevLink(v))
		}
	}
	unsettled := 0
	for v := int32(0); v < rows*cols; v++ {
		switch d := tree.Dist(v); {
		case d > last && st.Settled(v):
			t.Fatalf("grid: node %d at %v, beyond the last target's %v, was settled", v, d, last)
		case d < last && (st.Dist(v) != d || st.PrevLink(v) != tree.PrevLink(v)):
			t.Fatalf("grid: node %d at %v, nearer than the last target's %v, holds (%v, %d), full tree %d",
				v, d, last, st.Dist(v), st.PrevLink(v), tree.PrevLink(v))
		case !st.Settled(v):
			unsettled++
		}
	}
	if unsettled == 0 {
		t.Fatal("grid: the stopped search settled every node")
	}
}

// TestSearchAllocs pins the kernel's allocation-free profile: a full-tree
// search and one stopped at a target list, on a pooled, already-grown state,
// allocate nothing; nor does a goal-directed search on a snapshot once its
// first run has built the bound's node terms and gate verdict, nor one
// directed by a tree, whose memo is pooled scratch too — a row over every
// node, or an oracle's over the satellites and cities, whose forwarders'
// bounds are read off their satellites.
func TestSearchAllocs(t *testing.T) {
	n := randomNet(rand.New(rand.NewSource(9)), 300, 900)
	snap := phase1Builder(t).At(geo.Epoch)
	goal := snap.CityNode(snap.NumCity - 1)
	_, row := searchTree(snap, goal, nil, false)
	st := AcquireSearch()
	defer st.Release()
	compact := make([]int32, snap.RowNodes())
	snap.Search(st, SearchSpec{Src: goal, Target: NoTarget})
	st.TreeRow(compact)
	for _, c := range []struct {
		n    *Network
		spec SearchSpec
	}{
		{n, SearchSpec{Src: 0, Target: NoTarget}},
		{n, SearchSpec{Src: 0, Target: 7, Targets: []int32{150, 299, 150}}},
		{snap, SearchSpec{Src: snap.CityNode(0), Target: goal}},
		{snap, SearchSpec{Src: snap.CityNode(0), Target: goal, Tree: row}},
		{snap, SearchSpec{Src: snap.CityNode(0), Target: goal, Tree: compact}},
	} {
		c.n.Search(st, c.spec) // grow the scratch arrays and the heap once
		if allocs := testing.AllocsPerRun(50, func() { c.n.Search(st, c.spec) }); allocs != 0 {
			t.Fatalf("pooled search %+v allocates %v times per run, want 0", c.spec, allocs)
		}
		if directed := st.goal == goal; c.n == snap && (!directed || (st.tree != nil) != (c.spec.Tree != nil)) {
			t.Fatalf("the search on the snapshot was not goal-directed (given a tree: %v)", c.spec.Tree != nil)
		}
	}
}

func TestDifferentialDijkstra(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomNet(r, 30+r.Intn(40), 80)
		src := int32(r.Intn(n.N()))
		banned := randomBans(r, n, 0.15)

		dist, prev := searchTree(n, src, banned, false)
		wantDist, wantPrev := naiveDijkstra(n, src, nil, banned, false, nil)
		compareAll(t, n, dist, wantDist, prev, wantPrev, "banned")

		// Same search through a reused state: stamping must fully isolate
		// consecutive epochs.
		st := AcquireSearch()
		for li := range banned {
			st.BanLink(li)
		}
		for rep := 0; rep < 3; rep++ {
			n.Search(st, SearchSpec{Src: src, Target: NoTarget})
			gotDist, gotPrev := treeOf(st, n.N())
			compareAll(t, n, gotDist, wantDist, gotPrev, wantPrev, "reused state")
		}
		st.Release()
	}
}

func TestDifferentialSatTransit(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomNet(r, 40, 90)
		src := int32(r.Intn(n.N()))

		dist, prev := searchTree(n, src, nil, true)
		wantDist, wantPrev := naiveDijkstra(n, src, nil, nil, true, nil)
		compareAll(t, n, dist, wantDist, prev, wantPrev, "sat-transit")

		// A targeted restricted search must agree with the reference's
		// extracted route hop for hop.
		for dst := int32(0); dst < int32(n.N()); dst++ {
			p, ok := satTransitPath(n, src, dst)
			wp, wok := n.extractPath(src, dst, wantDist, wantPrev)
			if ok != wok {
				t.Fatalf("seed %d: sat-transit %d→%d reachable=%v, reference %v", seed, src, dst, ok, wok)
			}
			if ok && !slices.Equal(p.Links, wp.Links) {
				t.Fatalf("seed %d: sat-transit path %d→%d = %v, reference %v", seed, src, dst, p.Links, wp.Links)
			}
		}
	}
}

// TestDifferentialKDisjoint holds every entry of KDisjointPathsTo to
// KDisjointPaths for that source and to naiveDijkstra peeling — search, ban
// the found path's links, search again. Where the free-space gate is open the
// destination's ball directs every search: on random mirror-symmetric lattice
// networks (seeds 300–314), whose twin routes tie exactly, and on
// FuzzSearchGeometric's twin chains and equatorial grid. Where it is closed
// the searches are plain: on FuzzSearch's tie-rich zero-position grids and on
// the equatorial grid with a node below the surface. Each source list holds a
// duplicate, the destination itself and an isolated node, twice, and k runs
// past the number of disjoint routes. The kernel searches counted are one per
// path found, one per source that ran short of k, and the ball exactly where
// the gate is open; a source the ball does not reach is not searched.
func TestDifferentialKDisjoint(t *testing.T) {
	type kCase struct {
		name string
		n    *Network
		open bool // the free-space gate
		dst  int32
		srcs []int32
	}
	var cases []kCase
	// add appends to srcs a duplicate of the first source, the destination
	// and, twice, an isolated node at pos: a source searched where the gate
	// is closed, and not searched where it is open.
	add := func(name string, n *Network, open bool, pos geo.Vec3, dst int32, srcs ...int32) {
		isolated := n.AddNode(NodeSatellite, pos, "")
		cases = append(cases, kCase{name, n, open, dst, append(srcs, srcs[0], dst, isolated, isolated)})
	}
	orbit := geo.LatLon{Alt: 550}.ToECEF()
	for seed := int64(300); seed < 315; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomMirrorNet(r, 10, 24)
		pick := func() int32 { return int32(r.Intn(n.N())) }
		add(fmt.Sprintf("seed %d", seed), n, true, orbit, pick(), pick(), pick(), pick())
	}
	add("twin chains", geoNet(twinChainsBytes()), true, orbit, 1, 0, 2, 7)
	add("equatorial grid", geoNet(equatorialGridBytes()), true, orbit, 1, 0, 4, 8, 12)
	add("equatorial grid, a node below the surface", geoNet(equatorialGridBytes()), false, geo.Vec3{}, 1, 0, 4, 8, 12)
	add("6×6 grid", fuzzNet(gridBytes(6, 6)), false, geo.Vec3{}, 0, 35, 14, 21)
	add("7×8 grid", fuzzNet(gridBytes(7, 8)), false, geo.Vec3{}, 27, 0, 55, 8, 40)
	add("4×9 grid", fuzzNet(gridBytes(4, 9)), false, geo.Vec3{}, 13, 31, 4, 35)

	defer telemetry.Disable()
	searches := func() int64 { return telemetry.Enable().Histogram(telemetry.StageSearch.String()).Count() }
	short := 0 // entries that ran out of disjoint routes before k
	for _, c := range cases {
		if open := c.n.goalTerms() != nil; open != c.open {
			t.Fatalf("%s: free-space gate open = %v, want %v", c.name, open, c.open)
		}
		for _, k := range []int{1, 4, 9} {
			before := searches()
			got := c.n.KDisjointPathsTo(c.dst, c.srcs, k)
			ran := searches() - before
			if len(got) != len(c.srcs) {
				t.Fatalf("%s, k=%d: %d entries for %d sources", c.name, k, len(got), len(c.srcs))
			}
			var want int64
			if c.open {
				want = 1 // the destination's ball
			}
			for i, src := range c.srcs {
				tag := fmt.Sprintf("%s, k=%d, %d→%d", c.name, k, src, c.dst)
				requireSamePaths(t, tag+" (KDisjointPaths)", got[i], c.n.KDisjointPaths(src, c.dst, k))
				requireSamePaths(t, tag+" (reference)", got[i], naiveKDisjoint(c.n, src, c.dst, k))
				if len(got[i]) > 0 || !c.open {
					want += int64(len(got[i]))
					if len(got[i]) < k {
						want++
					}
				}
				if len(got[i]) > 0 && len(got[i]) < k {
					short++
				}
			}
			if ran != want {
				t.Fatalf("%s, k=%d: %d kernel searches, want %d", c.name, k, ran, want)
			}
		}
	}
	if short == 0 {
		t.Fatal("no source ran out of disjoint routes: k never exceeded them")
	}
}

// randomMirrorNet is a geoNet of nodes random lattice nodes and links random
// links between them, plus their reflections in the equator (mirrorBytes).
func randomMirrorNet(r *rand.Rand, nodes, links int) *Network {
	nd := make([][3]int, nodes)
	for i := range nd {
		nd[i] = [3]int{r.Intn(2), r.Intn(9), r.Intn(24)}
	}
	ls := make([][2]int, links)
	for i := range ls {
		ls[i] = [2]int{r.Intn(nodes), r.Intn(nodes)}
	}
	return geoNet(mirrorBytes(nd, ls))
}

// naiveKDisjoint is KDisjointPaths' peeling on naiveDijkstra.
func naiveKDisjoint(n *Network, src, dst int32, k int) []Path {
	banned := map[int32]bool{}
	var out []Path
	for len(out) < k {
		wd, wp := naiveDijkstra(n, src, []int32{dst}, banned, false, nil)
		p, ok := n.extractPath(src, dst, wd, wp)
		if !ok {
			break
		}
		out = append(out, p)
		for _, li := range p.Links {
			banned[li] = true
		}
	}
	return out
}

// requireSamePaths fails unless got and want hold the same paths in the same
// order: links, nodes and the delay's float bits.
func requireSamePaths(t *testing.T, tag string, got, want []Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Links, want[i].Links) || !slices.Equal(got[i].Nodes, want[i].Nodes) ||
			math.Float64bits(got[i].OneWayMs) != math.Float64bits(want[i].OneWayMs) {
			t.Fatalf("%s: path %d = %v over %v (%v ms), want %v over %v (%v ms)", tag, i,
				got[i].Nodes, got[i].Links, got[i].OneWayMs, want[i].Nodes, want[i].Links, want[i].OneWayMs)
		}
	}
}

func TestDifferentialCostHook(t *testing.T) {
	for seed := int64(400); seed < 412; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomNet(r, 35, 80)
		src := int32(r.Intn(n.N()))
		load := make([]float64, len(n.Links))
		for li := range load {
			load[li] = float64(r.Intn(4))
		}
		cost := func(li int32) float64 {
			l := n.Links[li]
			if load[li] >= 3 { // saturate some links entirely
				return math.Inf(1)
			}
			u := load[li] / l.CapGbps
			return l.OneWayMs * (1 + 8*u*u)
		}

		st := AcquireSearch()
		n.Search(st, SearchSpec{Src: src, Target: NoTarget, Cost: cost})
		dist, prev := treeOf(st, n.N())
		wantDist, wantPrev := naiveDijkstra(n, src, nil, nil, false, cost)
		compareAll(t, n, dist, wantDist, prev, wantPrev, "cost hook")

		// Under a cost hook, Dist is accumulated cost but extracted paths
		// must still report true propagation delay.
		for dst := int32(0); dst < int32(n.N()); dst++ {
			requirePathWeighs(t, fmt.Sprintf("seed %d", seed), st, dst, true)
		}
		st.Release()
	}
}

// TestCostTiePathWeighsItsLinks: under a Cost hook that prices every link
// at 1, city t ties at cost 2 through relay a (1 ms links) and through
// satellite b (5 ms links). The relay, relaxed through, offers first; the tie
// rule then hands t to b, the (dist, node, link)-least holder. The path must
// weigh the links it takes, 10 ms, not the 2 ms of the route it replaced.
func TestCostTiePathWeighsItsLinks(t *testing.T) {
	const b, s, a, tc = 0, 1, 2, 3
	n := &Network{}
	for _, kind := range []NodeKind{NodeSatellite, NodeCity, NodeRelay, NodeCity} {
		n.AddNode(kind, geo.Vec3{}, "")
	}
	n.NumSat = 1
	for _, l := range []struct {
		a, b int32
		ms   float64
	}{{s, a, 1}, {a, tc, 1}, {s, b, 5}, {b, tc, 5}} {
		n.Links = append(n.Links, Link{A: l.a, B: l.b, Kind: LinkGSL, CapGbps: 1, OneWayMs: l.ms})
	}
	st := AcquireSearch()
	defer st.Release()
	n.Search(st, SearchSpec{Src: s, Target: NoTarget, Cost: func(int32) float64 { return 1 }})
	p, ok := st.Path(tc)
	if !ok || !slices.Equal(p.Nodes, []int32{s, b, tc}) {
		t.Fatalf("path %v (ok=%v), want the tie rule's %v", p.Nodes, ok, []int32{s, b, tc})
	}
	if p.OneWayMs != 10 || st.Dist(tc) != 2 {
		t.Fatalf("path weighs %v ms at cost %v, want 10 ms at cost 2", p.OneWayMs, st.Dist(tc))
	}
	for v := range int32(n.N()) {
		requirePathWeighs(t, "cost tie", st, v, true)
	}
}

// TestSearchStatePoolConcurrent hammers pooled SearchState reuse from many
// goroutines against two different networks at once; run under -race it
// proves states never leak between workers and stale stamps never bleed
// across networks of different sizes.
func TestSearchStatePoolConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	big := randomNet(r, 120, 300)
	small := randomNet(r, 20, 40)
	nets := []*Network{big, small}

	type ref struct {
		dist []float64
		prev []int32
	}
	want := map[*Network][]ref{}
	for _, n := range nets {
		for src := int32(0); src < int32(n.N()); src++ {
			d, p := naiveDijkstra(n, src, nil, nil, false, nil)
			want[n] = append(want[n], ref{d, p})
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 50; iter++ {
				n := nets[r.Intn(len(nets))]
				src := int32(r.Intn(n.N()))
				st := AcquireSearch()
				n.Search(st, SearchSpec{Src: src, Target: NoTarget})
				d, p := treeOf(st, n.N())
				st.Release()
				rf := want[n][src]
				for v := range d {
					if d[v] != rf.dist[v] || p[v] != rf.prev[v] {
						t.Errorf("worker %d iter %d: src %d node %d: got (%v,%d) want (%v,%d)",
							w, iter, src, v, d[v], p[v], rf.dist[v], rf.prev[v])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
