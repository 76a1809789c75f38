package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"leosim/internal/geo"
)

// The differential battery for the relay overlay (overlay.go): every search
// it runs is held to the CSR kernel's on every node — satellite, city, relay
// and aircraft, Dist under math.Float64bits, PrevLink, Reached, Settled and
// Path — and every full tree to naiveDijkstra.

// overlayNet builds a random network laid out as the Builder lays one out:
// sats satellites, cities cities, relays relays and aircraft aircraft, in that
// order and counted so. Every city, relay and aircraft links to one to four
// random satellites, in random order (so a forwarder's row is not ascending);
// isls random satellite pairs and fibers random city pairs are linked too.
// Weights are quantized (1–4 ms in 0.5 ms steps), so sums through different
// relays tie exactly and constantly.
func overlayNet(r *rand.Rand, sats, cities, relays, aircraft, isls, fibers int) *Network {
	n := &Network{NumSat: sats, NumCity: cities, NumRelay: relays, NumAircraft: aircraft}
	for _, k := range []struct {
		kind  NodeKind
		count int
	}{{NodeSatellite, sats}, {NodeCity, cities}, {NodeRelay, relays}, {NodeAircraft, aircraft}} {
		for i := 0; i < k.count; i++ {
			n.Kind = append(n.Kind, k.kind)
			n.Pos = append(n.Pos, geo.Vec3{})
			n.Name = append(n.Name, "")
		}
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
	for i := 0; i < fibers && cities > 1; i++ {
		if a, b := int32(sats+r.Intn(cities)), int32(sats+r.Intn(cities)); a != b {
			add(a, b, LinkFiber)
		}
	}
	return n
}

// overlaySearch runs spec on ov into st and fails unless the overlay, not the
// CSR, answered it.
func overlaySearch(t *testing.T, tag string, ov *Overlay, st *SearchState, spec SearchSpec) {
	t.Helper()
	if !ov.Search(st, spec) {
		t.Fatalf("%s: search did not complete", tag)
	}
	if st.split != ov.n || ov.n == 0 {
		t.Fatalf("%s: the search ran on the CSR (overlay of %d nodes)", tag, ov.n)
	}
}

// requireSameSearch holds st, searched on an overlay, to ref, the CSR
// kernel's search of the same spec: every node's Dist bits, PrevLink, Reached
// and Settled, and the Path to every node — or, where cities is set, to every
// city —, which weighs its label in both (requirePathWeighs).
func requireSameSearch(t *testing.T, tag string, n *Network, st, ref *SearchState, cities bool) {
	t.Helper()
	for v := int32(0); v < int32(n.N()); v++ {
		if math.Float64bits(st.Dist(v)) != math.Float64bits(ref.Dist(v)) || st.PrevLink(v) != ref.PrevLink(v) ||
			st.Reached(v) != ref.Reached(v) || st.Settled(v) != ref.Settled(v) {
			t.Fatalf("%s: %v node %d: overlay (%v, %d, reached %v, settled %v), CSR (%v, %d, reached %v, settled %v)",
				tag, n.Kind[v], v, st.Dist(v), st.PrevLink(v), st.Reached(v), st.Settled(v),
				ref.Dist(v), ref.PrevLink(v), ref.Reached(v), ref.Settled(v))
		}
		if cities && n.Kind[v] != NodeCity {
			continue
		}
		p, ok := st.Path(v)
		q, refOK := ref.Path(v)
		if ok != refOK || math.Float64bits(p.OneWayMs) != math.Float64bits(q.OneWayMs) ||
			!slices.Equal(p.Nodes, q.Nodes) || !slices.Equal(p.Links, q.Links) {
			t.Fatalf("%s: path to %v node %d: overlay %v (ok %v), CSR %v (ok %v)", tag, n.Kind[v], v, p.Links, ok, q.Links, refOK)
		}
		requirePathWeighs(t, tag+" overlay", st, v, false)
		requirePathWeighs(t, tag+" CSR", ref, v, false)
	}
}

// checkOverlay runs spec on the overlay and on the CSR and holds the two to
// each other on every node; a full tree is held to naiveDijkstra too, and a
// stopped search's wanted nodes to the reference's full tree, each under
// spec's transit rule.
func checkOverlay(t *testing.T, tag string, n *Network, ov *Overlay, spec SearchSpec, naive bool) {
	t.Helper()
	st, ref := AcquireSearch(), AcquireSearch()
	defer st.Release()
	defer ref.Release()
	overlaySearch(t, tag, ov, st, spec)
	n.Search(ref, spec)
	requireSameSearch(t, tag, n, st, ref, false)
	if !naive {
		return
	}
	wantDist, wantPrev := naiveDijkstra(n, spec.Src, nil, nil, spec.SatTransit, nil)
	wanted := spec.Targets
	if spec.Target != NoTarget {
		wanted = append(wanted, spec.Target)
	}
	if len(wanted) == 0 {
		dist, prev := treeOf(st, n.N())
		compareAll(t, n, dist, wantDist, prev, wantPrev, tag)
		return
	}
	for _, v := range wanted {
		if math.Float64bits(st.Dist(v)) != math.Float64bits(wantDist[v]) || st.PrevLink(v) != wantPrev[v] {
			t.Fatalf("%s: wanted node %d: (%v, %d), reference (%v, %d)", tag, v, st.Dist(v), st.PrevLink(v), wantDist[v], wantPrev[v])
		}
	}
}

// TestOverlayDifferential holds the overlay to the CSR kernel and to
// naiveDijkstra on random networks of satellites, cities (with fiber),
// relays and aircraft: full trees from cities and satellites, searches
// stopped at target lists, and single-target searches, each plain and under
// satellites-only transit.
func TestOverlayDifferential(t *testing.T) {
	for seed := int64(900); seed < 960; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := overlayNet(r, 6+r.Intn(20), 2+r.Intn(8), 5+r.Intn(40), r.Intn(10), r.Intn(30), r.Intn(6))
		ov := NewOverlay(n, overlayMinSearches)
		tag := fmt.Sprintf("seed %d", seed)
		if ov.n != int32(n.NumSat+n.NumCity) {
			t.Fatalf("%s: the overlay was refused", tag)
		}
		on := int(ov.n)
		for i := 0; i < 8; i++ {
			transit := i%2 == 1
			tag := fmt.Sprintf("%s (transit %v)", tag, transit)
			src := int32(r.Intn(on))
			checkOverlay(t, tag+" full tree", n, ov, SearchSpec{Src: src, Target: NoTarget, SatTransit: transit}, true)
			var targets []int32
			for k := 1 + r.Intn(3); k > 0; k-- {
				targets = append(targets, int32(n.NumSat+r.Intn(n.NumCity)))
			}
			checkOverlay(t, tag+" targets", n, ov, SearchSpec{Src: src, Target: NoTarget, Targets: targets, SatTransit: transit}, true)
			checkOverlay(t, tag+" target", n, ov, SearchSpec{Src: src, Target: int32(r.Intn(on)), SatTransit: transit}, true)
		}
	}
}

// checkGeometricOverlay counts the terminals right after n's satellites, up
// to two, as cities, and where the overlay admits that network holds every
// full tree, every search stopped at its cities and every search for one node
// from each of its nodes, plain and under satellites-only transit, to the CSR
// kernel's on every node, and to naiveDijkstra; on these networks the free-
// space bound directs the searches for one node. It returns the overlay's
// node and candidate counts, 0 where it was refused.
func checkGeometricOverlay(t *testing.T, n *Network) (nodes, cands int) {
	t.Helper()
	c := n.sharing(n.Links)
	for c.NumCity < 2 && c.NumSat+c.NumCity < c.N() && c.Kind[c.NumSat+c.NumCity] == NodeCity {
		c.NumCity++
	}
	ov := NewOverlay(c, overlayMinSearches)
	var cities []int32
	for v := int32(c.NumSat); v < ov.n; v++ {
		cities = append(cities, v)
	}
	for src := int32(0); src < ov.n; src++ {
		for _, transit := range []bool{false, true} {
			tag := fmt.Sprintf("geometric overlay (transit %v)", transit)
			checkOverlay(t, tag, c, ov, SearchSpec{Src: src, Target: NoTarget, SatTransit: transit}, true)
			checkOverlay(t, tag+" cities", c, ov, SearchSpec{Src: src, Target: NoTarget, Targets: cities, SatTransit: transit}, true)
			for dst := int32(0); dst < ov.n; dst++ {
				checkOverlay(t, tag, c, ov, SearchSpec{Src: src, Target: dst, SatTransit: transit}, true)
			}
		}
	}
	return int(ov.n), candidates(ov)
}

// TestOverlayGeometricSeeds: FuzzSearchGeometric's relay-dense seeds are
// overlays, with their relays contracted to candidates, and the free-space
// bound is open on them.
func TestOverlayGeometricSeeds(t *testing.T) {
	for _, ascending := range []bool{true, false} {
		n := geoNet(relayDenseBytes(ascending))
		if n.goalTerms() == nil {
			t.Fatal("the bound is not admissible on the relay-dense seed")
		}
		if nodes, cands := checkGeometricOverlay(t, n); nodes != 10 || cands == 0 {
			t.Fatalf("ascending %v: an overlay of %d nodes and %d candidates, want 10 nodes and candidates", ascending, nodes, cands)
		}
	}
}

// TestOverlayReducedDay holds the overlay to the CSR kernel on all 24 of a
// reduced day's networks (12 hourly snapshots, bent-pipe and hybrid): every
// fifth city's full tree, and its search stopped at three destination cities
// (on the hybrid, under satellites-only transit too, as Fig 6's ISL paths
// search), on every node's labels and every city's path; and, outside -short,
// one full tree per network to naiveDijkstra.
func TestOverlayReducedDay(t *testing.T) {
	b := reducedBuilder(t)
	st, ref := AcquireSearch(), AcquireSearch()
	defer st.Release()
	defer ref.Release()
	for h := 0; h < 12; h++ {
		at := geo.Epoch.Add(time.Duration(h) * time.Hour)
		bp := b.At(at)
		for mode, n := range []*Network{bp, b.Hybrid(bp, at)} {
			tag := fmt.Sprintf("hour %d, mode %d", h, mode)
			ov := NewOverlay(n, n.NumCity)
			for c := h % 5; c < n.NumCity; c += 5 {
				src := n.CityNode(c)
				spec := SearchSpec{Src: src, Target: NoTarget}
				overlaySearch(t, tag, ov, st, spec)
				n.Search(ref, spec)
				requireSameSearch(t, fmt.Sprintf("%s, city %d", tag, c), n, st, ref, true)
				for _, k := range pairGroupOffsets {
					spec.Targets = append(spec.Targets, n.CityNode((c+k)%n.NumCity))
				}
				overlaySearch(t, tag, ov, st, spec)
				n.Search(ref, spec)
				requireSameSearch(t, fmt.Sprintf("%s, city %d, stopped", tag, c), n, st, ref, true)
				if mode == 1 {
					spec.SatTransit = true
					overlaySearch(t, tag, ov, st, spec)
					n.Search(ref, spec)
					requireSameSearch(t, fmt.Sprintf("%s, city %d, stopped, transit", tag, c), n, st, ref, true)
				}
			}
			if !testing.Short() {
				checkOverlay(t, tag+", naive", n, ov, SearchSpec{Src: n.CityNode(h * 11 % n.NumCity), Target: NoTarget}, true)
			}
		}
	}
}

// TestOverlayRoundingTies plants, at satellite x, two relays whose exact sums
// differ but whose offers round to one label, 2.5: r1 by a–r1 = 0.5 and
// r1–x = 1 − 2⁻⁵², r2 by a–r2 = 0.5 − 2⁻⁵⁴ and r2–x = 1, from a at 1. Both
// relays' labels round to 1.5 too, so the tie rule gives x to r2, the lower
// node: plain Dijkstra pops r2 first. r2's sum is the larger (1.5 − 2⁻⁵⁴
// rounds to 1.5, above r1's 1.5 − 2⁻⁵²), so a pair that kept only its least
// sum would give x to r1. In "r1 first" the a–r1 link is the lower and r1's
// candidate relaxes first, so r2 must take x over by the tie rule; in "r2
// first" it must keep it.
func TestOverlayRoundingTies(t *testing.T) {
	const a, x, c, r2, r1 = 0, 1, 2, 3, 4
	for _, tc := range []struct {
		name  string
		first int32
	}{{"r1 first", r1}, {"r2 first", r2}} {
		n := &Network{NumSat: 2, NumCity: 1, NumRelay: 2}
		for _, k := range []NodeKind{NodeSatellite, NodeSatellite, NodeCity, NodeRelay, NodeRelay} {
			n.AddNode(k, geo.Vec3{}, "")
		}
		n.link(c, a, 1)
		hops := map[int32][2]float64{r1: {0.5, 1 - 0x1p-52}, r2: {0.5 - 0x1p-54, 1}}
		order := []int32{tc.first, r1 + r2 - tc.first}
		for _, r := range order {
			n.link(a, r, hops[r][0])
		}
		toX := map[int32]int32{}
		for _, r := range order {
			toX[r] = n.link(r, x, hops[r][1])
		}
		viaR2 := toX[r2]
		ov := NewOverlay(n, overlayMinSearches)
		if candidates(ov) != 4 {
			t.Fatalf("%s: %d candidates, want both relays both ways", tc.name, candidates(ov))
		}
		checkOverlay(t, tc.name, n, ov, SearchSpec{Src: c, Target: NoTarget}, true)
		st := AcquireSearch()
		overlaySearch(t, tc.name, ov, st, SearchSpec{Src: c, Target: NoTarget})
		if st.Dist(x) != 2.5 || st.PrevLink(x) != viaR2 {
			t.Fatalf("%s: x at (%v, %d), want (2.5, %d) through r2", tc.name, st.Dist(x), st.PrevLink(x), viaR2)
		}
		st.Release()
	}
}

// candidates counts the overlay's relay candidates (arcs through a
// forwarder), both ways.
func candidates(ov *Overlay) int {
	count := 0
	for _, a := range ov.arcs {
		if a.pre > 0 {
			count++
		}
	}
	return count
}

// TestOverlayRefused: a network the overlay cannot answer for exactly gets an
// empty one, and every search through it, plain or under satellites-only
// transit, is the CSR kernel's — an aircraft linked to a city, a relay linked
// to a relay, a relay of satellite kind, a link outside the weight bounds, a
// network with no forwarder, and a fan-out too small to pay for a build.
func TestOverlayRefused(t *testing.T) {
	base := func() *Network {
		return overlayNet(rand.New(rand.NewSource(31)), 12, 4, 20, 4, 6, 2)
	}
	for _, tc := range []struct {
		name     string
		edit     func(n *Network)
		searches int
	}{
		{"aircraft to city", func(n *Network) { n.link(int32(n.N()-1), int32(n.NumSat), 1) }, overlayMinSearches},
		{"relay to relay", func(n *Network) { n.link(int32(n.NumSat+n.NumCity), int32(n.NumSat+n.NumCity+1), 1) }, overlayMinSearches},
		{"satellite kind past NumSat", func(n *Network) { n.Kind[n.NumSat+n.NumCity] = NodeSatellite }, overlayMinSearches},
		{"zero weight", func(n *Network) { n.link(0, 1, 0) }, overlayMinSearches},
		{"beyond the weight bound", func(n *Network) { n.link(0, 1, 2*overlayMaxMs) }, overlayMinSearches},
		{"no forwarder", func(n *Network) {
			n.Kind, n.Pos, n.Name = n.Kind[:n.NumSat+n.NumCity], n.Pos[:n.NumSat+n.NumCity], n.Name[:n.NumSat+n.NumCity]
			n.NumRelay, n.NumAircraft = 0, 0
			n.Links = slices.DeleteFunc(n.Links, func(l Link) bool { return int(max(l.A, l.B)) >= n.N() })
		}, overlayMinSearches},
		{"one search", func(*Network) {}, 1},
	} {
		n := base()
		tc.edit(n)
		n.csrValid.Store(false)
		ov := NewOverlay(n, tc.searches)
		if ov.n != 0 {
			t.Fatalf("%s: an overlay of %d nodes was built", tc.name, ov.n)
		}
		st, ref := AcquireSearch(), AcquireSearch()
		for src := int32(0); src < int32(n.NumSat+n.NumCity); src++ {
			for _, transit := range []bool{false, true} {
				spec := SearchSpec{Src: src, Target: NoTarget, SatTransit: transit}
				ov.Search(st, spec)
				if st.split != 0 {
					t.Fatalf("%s: a search ran on the overlay", tc.name)
				}
				n.Search(ref, spec)
				requireSameSearch(t, tc.name, n, st, ref, false)
			}
		}
		st.Release()
		ref.Release()
	}
}

// TestOverlayCSRKept: searches the overlay admits no change to — a ban, a
// Cost hook, a tree, a Stop hook, a relay wanted or searched from — run on
// the CSR kernel through it; a satellites-only transit search runs on the
// overlay.
func TestOverlayCSRKept(t *testing.T) {
	n := overlayNet(rand.New(rand.NewSource(77)), 12, 4, 20, 4, 6, 2)
	ov := NewOverlay(n, overlayMinSearches)
	relay := int32(n.NumSat + n.NumCity)
	_, tree := searchTree(n, 1, nil, false)
	for name, spec := range map[string]SearchSpec{
		"cost":          {Src: 0, Target: NoTarget, Cost: func(li int32) float64 { return n.Links[li].OneWayMs }},
		"tree":          {Src: 0, Target: 1, Tree: tree},
		"stop":          {Src: 0, Target: NoTarget, Stop: func() bool { return false }},
		"relay wanted":  {Src: 0, Target: NoTarget, Targets: []int32{1, relay}},
		"relay source":  {Src: relay, Target: NoTarget},
		"relay targets": {Src: 0, Target: relay},
	} {
		st := AcquireSearch()
		ov.Search(st, spec)
		if st.split != 0 {
			t.Fatalf("%s: the search ran on the overlay", name)
		}
		st.Release()
	}
	st := AcquireSearch()
	defer st.Release()
	overlaySearch(t, "satellite transit", ov, st, SearchSpec{Src: 0, Target: NoTarget, SatTransit: true})
	st.BanLink(0)
	ov.Search(st, SearchSpec{Src: 0, Target: NoTarget})
	if st.split != 0 {
		t.Fatal("a search with a banned link ran on the overlay")
	}
}

// TestOverlayLabelCap: a search that pops a label past overlayLabelCap
// leaves the overlay for the CSR kernel, whose answers it returns.
func TestOverlayLabelCap(t *testing.T) {
	n := &Network{NumSat: 6, NumCity: 1, NumRelay: 5}
	for i := 0; i < 12; i++ {
		kind := NodeSatellite
		if i == 6 {
			kind = NodeCity
		} else if i > 6 {
			kind = NodeRelay
		}
		n.AddNode(kind, geo.Vec3{}, "")
	}
	n.link(6, 0, 1)
	for i := int32(0); i < 5; i++ {
		n.link(i, 7+i, overlayMaxMs)
		n.link(7+i, i+1, overlayMaxMs)
	}
	ov := NewOverlay(n, overlayMinSearches)
	if ov.n != 7 {
		t.Fatalf("overlay of %d nodes, want 7", ov.n)
	}
	st, ref := AcquireSearch(), AcquireSearch()
	defer st.Release()
	defer ref.Release()
	spec := SearchSpec{Src: 6, Target: NoTarget}
	if !ov.Search(st, spec) || st.split != 0 {
		t.Fatalf("a search reaching %v ms stayed on the overlay", st.Dist(5))
	}
	n.Search(ref, spec)
	requireSameSearch(t, "past the cap", n, st, ref, false)
	if st.Dist(5) <= overlayLabelCap {
		t.Fatalf("the far satellite is at %v, not past the cap", st.Dist(5))
	}
}

// TestOverlayCounts pins the overlay of reduced snapshot 0, bent-pipe and
// hybrid — its nodes, arcs and relay candidates, against the CSR's nodes and
// arcs — and the arcs one full tree from city 0 relaxes on each. The CSR
// kernel relaxes a relay's arcs again each time its label falls, and a relay
// it relaxes hands its satellites on over a second arc; the overlay has no
// relay to relax.
func TestOverlayCounts(t *testing.T) {
	b := reducedBuilder(t)
	bp := b.At(geo.Epoch)
	st := AcquireSearch()
	defer st.Release()
	type counts struct{ nodes, arcs, candidates, relaxed int }
	for _, tc := range []struct {
		name         string
		n            *Network
		csr, overlay counts
	}{
		{"bent-pipe", bp, counts{3863, 45922, 0, 57533}, counts{1734, 29986, 27118, 29921}},
		{"hybrid", b.Hybrid(bp, geo.Epoch), counts{3863, 52258, 0, 57763}, counts{1734, 36322, 27118, 36631}},
	} {
		n := tc.n
		ov := NewOverlay(n, n.NumCity)
		// A Cost hook that prices each link at its delay changes nothing
		// in the CSR kernel's search but is asked once per arc relaxed.
		relaxed := 0
		n.Search(st, SearchSpec{Src: n.CityNode(0), Target: NoTarget, Cost: func(li int32) float64 {
			relaxed++
			return n.Links[li].OneWayMs
		}})
		csr := counts{n.N(), len(n.adjEdges), 0, relaxed}
		spec := SearchSpec{Src: n.CityNode(0), Target: NoTarget}
		overlaySearch(t, tc.name, ov, st, spec)
		got := counts{int(ov.n), len(ov.arcs), candidates(ov), st.relaxed}
		if csr != tc.csr || got != tc.overlay {
			t.Fatalf("%s: CSR %+v, overlay %+v; pinned %+v and %+v", tc.name, csr, got, tc.csr, tc.overlay)
		}
	}
}

// BenchmarkOverlayBuild times, alternately, the GSL scan of reduced snapshot
// 0 (Builder.At) and the overlay build of the network it returns:
// go test -run '^$' -bench '^BenchmarkOverlayBuild$' -count 5 ./internal/graph
func BenchmarkOverlayBuild(b *testing.B) {
	bld := reducedBuilder(b)
	n := bld.At(geo.Epoch)
	b.Run("at", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bld.At(geo.Epoch)
		}
	})
	b.Run("overlay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewOverlay(n, n.NumCity)
		}
	})
}
