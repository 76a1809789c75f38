package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"leosim/internal/geo"
)

// Native fuzz targets: raw bytes are decoded directly into a graph topology
// (no PRNG indirection, so the fuzzer's mutations map straight onto
// structural edge cases — self-referential link lists, parallel links,
// isolated nodes, degenerate weights) and the kernel is held to the naive
// reference from differential_test.go, plus CSR structural invariants.

// fuzzNet decodes a byte stream into a small graph. Layout: byte 0 sizes the
// node set, byte 1 flags ground-side nodes, then each link consumes three
// bytes (endpoint, endpoint, quantized weight). Self-loops are skipped;
// parallel links are kept deliberately.
func fuzzNet(data []byte) *Network {
	if len(data) < 5 {
		return nil
	}
	nodes := 2 + int(data[0])%60
	n := &Network{}
	for i := 0; i < nodes; i++ {
		kind := NodeSatellite
		if data[1]&(1<<(i%8)) != 0 && i%3 == 0 {
			kind = NodeCity
		}
		n.AddNode(kind, geo.Vec3{}, "")
	}
	for i := 2; i+2 < len(data); i += 3 {
		a := int32(int(data[i]) % nodes)
		b := int32(int(data[i+1]) % nodes)
		if a == b {
			continue
		}
		w := 0.25 + 0.25*float64(data[i+2]%32)
		n.Links = append(n.Links, Link{A: a, B: b, Kind: LinkGSL, CapGbps: 1, OneWayMs: w})
	}
	n.csrValid.Store(false)
	return n
}

// FuzzSearch holds the allocation-free search kernel to the naive O(V²)
// reference on arbitrary decoded topologies: identical distances, identical
// predecessor links (pinning the (dist, node) tie-break), and an extracted
// path consistent with the distance label; a search stopped at a target list
// (duplicates, the source, unreachable nodes) to the full tree on every listed
// node (checkSearch); a view — the network searched with a cut banned — to
// the network of its other links searched whole (checkView); and the k = 3
// disjoint-path sets from the target list to the drawn destination
// (KDisjointPathsTo) to each source's own KDisjointPaths and the naive
// peeling. The grid seeds tie every shortest path many ways; of the last
// three, one lists the source and a duplicate on a grid with nothing banned,
// the next's six extra nodes are isolated, so its list holds unreachable
// targets, and the last lists the destination and a duplicate.
func FuzzSearch(f *testing.F) {
	f.Add([]byte{10, 0xAA, 0, 1, 3, 1, 2, 7, 2, 3, 1, 0, 3, 9}, uint8(0), uint8(3), uint8(0), uint8(0), []byte{2, 7, 2})
	f.Add([]byte{40, 0x0F, 5, 6, 2, 6, 7, 2, 7, 5, 2, 1, 2, 30}, uint8(5), uint8(7), uint8(3), uint8(0x1F), []byte{6, 5})
	f.Add([]byte{2, 1, 0, 1, 15}, uint8(1), uint8(0), uint8(255), uint8(0x0A), []byte(nil))
	f.Add([]byte{9, 0x49, 0, 1, 31, 0, 2, 30, 0, 3, 29, 0, 4, 28, 1, 2, 0, 2, 3, 0, 3, 4, 0}, uint8(0), uint8(4), uint8(7), uint8(0x15), []byte{3, 1})
	f.Add(gridBytes(6, 6), uint8(0), uint8(35), uint8(2), uint8(0x40), []byte{14, 21, 14})
	f.Add(gridBytes(7, 8), uint8(27), uint8(0), uint8(5), uint8(0x93), []byte{27, 55, 8, 40})
	f.Add(gridBytes(4, 9), uint8(13), uint8(31), uint8(7), uint8(0x0C), []byte(nil))
	f.Add([]byte{6, 0, 0, 1, 3, 0, 1, 3, 1, 2, 3, 2, 1, 3, 2, 3, 3, 0, 3, 9, 3, 4, 3, 4, 3, 3, 4, 5, 3, 5, 4, 3}, uint8(0), uint8(5), uint8(1), uint8(0), []byte{5, 4, 4})
	f.Add(gridBytes(7, 8), uint8(20), uint8(0), uint8(0), uint8(0), []byte{20, 34, 34, 9})
	f.Add(append([]byte{40}, gridBytes(6, 6)[1:]...), uint8(14), uint8(29), uint8(0), uint8(0x0C), []byte{35, 14, 40, 22, 35, 0})
	f.Add(gridBytes(6, 6), uint8(0), uint8(35), uint8(0), uint8(0), []byte{14, 35, 0, 14})
	f.Fuzz(func(t *testing.T, data []byte, srcB, dstB, banB, optB uint8, targetB []byte) {
		n := fuzzNet(data)
		if n == nil || len(n.Links) == 0 {
			t.Skip()
		}
		src := int32(int(srcB) % n.N())
		dst := int32(int(dstB) % n.N())
		var targets []int32
		for _, b := range targetB {
			targets = append(targets, int32(int(b)%n.N()))
		}
		banned := map[int32]bool{}
		for li := range n.Links {
			if banB > 0 && li%int(banB) == 0 {
				banned[int32(li)] = true
			}
		}

		dist, prev := searchTree(n, src, banned, false)
		wantDist, wantPrev := naiveDijkstra(n, src, nil, banned, false, nil)
		for v := range dist {
			if dist[v] != wantDist[v] || prev[v] != wantPrev[v] {
				t.Fatalf("node %d: kernel (%v, %d) vs reference (%v, %d)",
					v, dist[v], prev[v], wantDist[v], wantPrev[v])
			}
		}

		// Satellites-only transit against the reference under the same rule.
		gotD, gotP := searchTree(n, src, nil, true)
		refD, refP := naiveDijkstra(n, src, nil, nil, true, nil)
		for v := range gotD {
			if gotD[v] != refD[v] || gotP[v] != refP[v] {
				t.Fatalf("sat-transit node %d: kernel (%v, %d) vs reference (%v, %d)",
					v, gotD[v], gotP[v], refD[v], refP[v])
			}
		}

		// Everything at once, selected by optB's bits: satellites-only
		// transit, a cost hook with free and excluded links, and an
		// early-exit target, on top of the link bans above and the target
		// list.
		var cost func(int32) float64
		target := NoTarget
		if optB&4 != 0 {
			cost = func(li int32) float64 {
				if m := (int(li) + int(optB>>4)) % 7; m < 5 {
					return n.Links[li].OneWayMs * float64(m)
				}
				return math.Inf(1)
			}
		}
		if optB&8 != 0 {
			target = dst
		}
		checkSearch(t, n, SearchSpec{Src: src, Target: target, Targets: targets, SatTransit: optB&2 != 0, Cost: cost}, banned, "combined")

		// A cut of banB%8 eighths of the links, drawn by hashing link ids
		// with optB.
		var cut Cut
		for li := range n.Links {
			if h := uint32(li)*2654435761 ^ uint32(optB)*40503; h>>29 < uint32(banB%8) {
				cut = append(cut, int32(li))
			}
		}
		checkView(t, n, cut, src)

		// The disjoint-path sets from the drawn target list, each what its
		// one-source call and the naive peeling find.
		sets := n.KDisjointPathsTo(dst, targets, 3)
		for i, v := range targets {
			tag := fmt.Sprintf("%d→%d disjoint paths", v, dst)
			requireSamePaths(t, tag, sets[i], n.KDisjointPaths(v, dst, 3))
			requireSamePaths(t, tag+" (reference)", sets[i], naiveKDisjoint(n, v, dst, 3))
		}

		// Extracted path must be continuous and priced exactly at dist[dst].
		if p, ok := n.ShortestPath(src, dst); ok {
			d, _ := searchTree(n, src, nil, false)
			if math.Abs(p.OneWayMs-d[dst]) > 1e-12*math.Max(1, d[dst]) {
				t.Fatalf("path delay %v vs dist %v", p.OneWayMs, d[dst])
			}
			at := src
			for i, li := range p.Links {
				l := n.Links[li]
				switch at {
				case l.A:
					at = l.B
				case l.B:
					at = l.A
				default:
					t.Fatalf("hop %d: link %d (%d-%d) does not touch %d", i, li, l.A, l.B, at)
				}
			}
			if at != dst {
				t.Fatalf("path ends at %d, want %d", at, dst)
			}
		}
	})
}

// FuzzBuildCSR checks the lazily built CSR adjacency against the flat link
// list on arbitrary topologies: every link appears exactly once per endpoint,
// degrees agree, and a WithLinks derivation over the odd-indexed links (the
// way a fault mask re-indexes a filtered list) freezes a consistent one too.
func FuzzBuildCSR(f *testing.F) {
	f.Add([]byte{6, 0, 0, 1, 1, 1, 2, 1, 4, 5, 1, 0, 5, 1})
	f.Add([]byte{3, 0xFF, 0, 1, 1, 0, 1, 1, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzNet(data)
		if n == nil {
			t.Skip()
		}
		verify := func(tag string) {
			seen := make(map[int32]int, len(n.Links))
			total := 0
			for v := int32(0); v < int32(n.N()); v++ {
				edges := n.Edges(v)
				total += len(edges)
				for _, e := range edges {
					l := n.Links[e.Link]
					if l.A != v && l.B != v {
						t.Fatalf("%s: node %d lists link %d (%d-%d)", tag, v, e.Link, l.A, l.B)
					}
					if want := l.A + l.B - v; e.To != want {
						t.Fatalf("%s: link %d from %d: To=%d, want %d", tag, e.Link, v, e.To, want)
					}
					seen[e.Link]++
				}
			}
			if total != 2*len(n.Links) {
				t.Fatalf("%s: CSR holds %d half-edges for %d links", tag, total, len(n.Links))
			}
			for li := range n.Links {
				if seen[int32(li)] != 2 {
					t.Fatalf("%s: link %d appears %d times, want 2", tag, li, seen[int32(li)])
				}
			}
		}
		verify("initial")
		var odd []Link
		for li, l := range n.Links {
			if li%2 == 1 {
				odd = append(odd, l)
			}
		}
		n = n.WithLinks(odd)
		verify("derived")
	})
}

// checkView holds a view to the network it stands for: n searched with cut
// banned, and the network of n's other links (WithLinks, order kept) searched
// whole, settle every node from src at the same float distance along the same
// node path over the same links — ties included, parallel links too.
func checkView(t *testing.T, n *Network, cut Cut, src int32) {
	t.Helper()
	var links []Link
	subIndex := make([]int32, len(n.Links)) // n's link id → its id in the filtered network
	for li, l := range n.Links {
		if !cut.Has(int32(li)) {
			subIndex[li] = int32(len(links))
			links = append(links, l)
		}
	}
	sub := n.WithLinks(links)
	view, whole := AcquireSearch(), AcquireSearch()
	defer view.Release()
	defer whole.Release()
	View{N: n, Cut: cut}.Search(view, SearchSpec{Src: src, Target: NoTarget})
	sub.Search(whole, SearchSpec{Src: src, Target: NoTarget})
	for v := int32(0); v < int32(n.N()); v++ {
		p, ok := view.Path(v)
		q, subOK := whole.Path(v)
		if ok != subOK || view.Dist(v) != whole.Dist(v) || p.OneWayMs != q.OneWayMs || !slices.Equal(p.Nodes, q.Nodes) {
			t.Fatalf("%d→%d with %d of %d links cut: view %v (%v ms, ok=%v), filtered network %v (%v ms, ok=%v)",
				src, v, len(cut), len(n.Links), p.Nodes, view.Dist(v), ok, q.Nodes, whole.Dist(v), subOK)
		}
		for i, li := range p.Links {
			if cut.Has(li) || subIndex[li] != q.Links[i] {
				t.Fatalf("%d→%d: hop %d is link %d of the view, %d of the filtered network", src, v, i, li, q.Links[i])
			}
		}
	}
}

// checkSurvivingTreePaths holds the subgraph lemma (DESIGN.md §7) on one
// network and one subgraph of it: wherever the subgraph's cut severs no hop
// of the tree path src → dst of n, the kernel on the subgraph returns that
// very node sequence at that very float distance — ties included — and a
// pair n cannot join, the subgraph cannot either. It returns how many tree
// paths survived and how many were cut.
func checkSurvivingTreePaths(t *testing.T, n *Network, keep func(li int) bool, src int32) (survived, cut int) {
	t.Helper()
	var links []Link
	var removed Cut
	for li, l := range n.Links {
		if keep(li) {
			links = append(links, l)
		} else {
			removed = append(removed, int32(li))
		}
	}
	sub := n.WithLinks(links)
	for dst := int32(0); dst < int32(n.N()); dst++ {
		p, ok := n.ShortestPath(src, dst)
		q, subOK := sub.ShortestPath(src, dst)
		if !ok {
			if subOK {
				t.Fatalf("%d→%d: unreachable in the network, reached in its subgraph", src, dst)
			}
			continue
		}
		if removed.Severs(p) {
			if subOK && q.OneWayMs < p.OneWayMs {
				t.Fatalf("%d→%d: subgraph distance %v below the network's %v", src, dst, q.OneWayMs, p.OneWayMs)
			}
			cut++
			continue
		}
		survived++
		if !subOK || q.OneWayMs != p.OneWayMs || len(q.Nodes) != len(p.Nodes) {
			t.Fatalf("%d→%d: tree path %v (%v ms) survives, subgraph kernel found %v (%v ms, ok=%v)",
				src, dst, p.Nodes, p.OneWayMs, q.Nodes, q.OneWayMs, subOK)
		}
		for i := range p.Nodes {
			if q.Nodes[i] != p.Nodes[i] {
				t.Fatalf("%d→%d: tree path %v survives, subgraph kernel broke the tie differently: %v", src, dst, p.Nodes, q.Nodes)
			}
		}
	}
	return survived, cut
}

// gridBytes encodes a rows × cols unit-weight grid (every shortest path tied
// many ways) in fuzzNet's layout.
func gridBytes(rows, cols int) []byte {
	data := []byte{byte(rows*cols - 2), 0}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				data = append(data, byte(r*cols+c), byte(r*cols+c+1), 3)
			}
			if r+1 < rows {
				data = append(data, byte(r*cols+c), byte((r+1)*cols+c), 3)
			}
		}
	}
	return data
}

// FuzzSubgraphTreePath drives checkSurvivingTreePaths over decoded topologies
// and subgraphs: link li is dropped when bit li of the drop stream (cycled) is
// set. fuzzNet's quantized weights and the grid seeds make equal-distance
// alternatives the rule, which real geometry never does.
func FuzzSubgraphTreePath(f *testing.F) {
	f.Add(gridBytes(6, 6), []byte{0x11, 0x40, 0x02}, uint8(0))
	f.Add(gridBytes(5, 7), []byte{0x84, 0x21, 0x10, 0x08}, uint8(17))
	f.Add(gridBytes(3, 3), []byte{0x00}, uint8(4))
	f.Add([]byte{9, 0x49, 0, 1, 31, 0, 2, 30, 0, 3, 29, 0, 4, 28, 1, 2, 0, 2, 3, 0, 3, 4, 0, 0, 1, 31}, []byte{0x05}, uint8(0))
	f.Add([]byte{40, 0x0F, 5, 6, 2, 6, 7, 2, 7, 5, 2, 1, 2, 30}, []byte{0xFF}, uint8(5))
	f.Fuzz(func(t *testing.T, data, drop []byte, srcB uint8) {
		n := fuzzNet(data)
		if n == nil || len(n.Links) == 0 || len(drop) == 0 {
			t.Skip()
		}
		checkSurvivingTreePaths(t, n, func(li int) bool {
			return drop[li/8%len(drop)]&(1<<(li%8)) == 0
		}, int32(int(srcB)%n.N()))
	})
}

// TestSubgraphTreePathTies runs the same property over random subgraphs of a
// larger unit-weight grid and of a grid with two weights, and requires both
// outcomes to occur: paths that survive and paths the subgraph cut.
func TestSubgraphTreePathTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rows, cols = 7, 8 // 56 nodes: fuzzNet's ceiling is 61
	for trial := 0; trial < 60; trial++ {
		data := gridBytes(rows, cols)
		if trial%2 == 1 {
			for i := 4; i < len(data); i += 3 {
				data[i] = byte(3 + 4*rng.Intn(2)) // weights 1 and 2: ties across hop counts
			}
		}
		n := fuzzNet(data)
		dropped := map[int]bool{}
		for li := range n.Links {
			if rng.Float64() < 0.02+0.2*float64(trial%5)/4 {
				dropped[li] = true
			}
		}
		survived, cut := checkSurvivingTreePaths(t, n, func(li int) bool { return !dropped[li] }, int32(rng.Intn(n.N())))
		if len(dropped) > 10 && (survived == 0 || cut == 0) {
			t.Fatalf("trial %d (%d links dropped): %d survived, %d cut — the property was not exercised", trial, len(dropped), survived, cut)
		}
	}
}

// geoNet decodes a byte stream into a small geometric network, the kind the
// free-space bound directs searches on. Byte 0 sizes the node set; each node
// then takes two bytes — the first's top bit lifts it from the surface to
// 550 km and its low bits pick a latitude on a 15° lattice (−60°…60°), the
// second a longitude (−180°…165°) — and each link two bytes, its ends. A link
// joins two satellites by laser and a satellite and a terminal by radio where
// the straight segment clears the Earth, and any other pair by fiber; a pair
// at one lattice point is not linked. Weights come from AddLink, so every
// link is at least the bound between its ends. The leading satellites are
// NumSat, as a built network's are.
func geoNet(data []byte) *Network {
	if len(data) < 1 {
		return nil
	}
	nodes := 2 + int(data[0])%30
	if len(data) < 1+2*nodes {
		return nil
	}
	n := &Network{}
	for i := 0; i < nodes; i++ {
		lat, lon := data[1+2*i], data[2+2*i]
		kind, alt := NodeCity, 0.0
		if lat&0x80 != 0 {
			kind, alt = NodeSatellite, 550
		}
		ll := geo.LatLon{Lat: 15 * float64(int(lat&0x7f)%9-4), Lon: 15 * float64(int(lon)%24-12), Alt: alt}
		n.AddNode(kind, ll.ToECEF(), "")
	}
	for n.NumSat < nodes && n.Kind[n.NumSat] == NodeSatellite {
		n.NumSat++
	}
	for i := 1 + 2*nodes; i+1 < len(data); i += 2 {
		a, b := int32(int(data[i])%nodes), int32(int(data[i+1])%nodes)
		if n.Pos[a] == n.Pos[b] {
			continue
		}
		kind := LinkFiber
		if geo.SegmentMinAltitudeKm(n.Pos[a], n.Pos[b]) >= 0 {
			switch satA, satB := n.Kind[a] == NodeSatellite, n.Kind[b] == NodeSatellite; {
			case satA && satB:
				kind = LinkISL
			case satA || satB:
				kind = LinkGSL
			}
		}
		n.AddLink(a, b, kind, 1)
	}
	return n
}

// mirrorBytes encodes, in geoNet's layout, nodes given as (satellite 0/1,
// latitude index 0…8, longitude index 0…23) and links between them, plus the
// reflection of both in the equator: each node off it gets a twin at the
// mirrored latitude, appended after the given nodes, and each link the link
// between its ends' twins. Reflected positions are exact, so twin paths tie
// to the last bit.
func mirrorBytes(nodes [][3]int, links [][2]int) []byte {
	twin := make([]int, len(nodes))
	all := append([][3]int(nil), nodes...)
	for i, nd := range nodes {
		twin[i] = i
		if nd[1] != 4 {
			twin[i] = len(all)
			all = append(all, [3]int{nd[0], 8 - nd[1], nd[2]})
		}
	}
	data := []byte{byte(len(all) - 2)}
	for _, nd := range all {
		data = append(data, byte(nd[0]<<7|nd[1]), byte(nd[2]))
	}
	for _, l := range links {
		data = append(data, byte(l[0]), byte(l[1]))
		if m := [2]int{twin[l[0]], twin[l[1]]}; m != l {
			data = append(data, byte(m[0]), byte(m[1]))
		}
	}
	return data
}

// twinChainsBytes encodes two terminals on the equator, nodes 0 and 1,
// joined over twin satellite chains at ±15°.
func twinChainsBytes() []byte {
	return mirrorBytes([][3]int{{0, 4, 8}, {0, 4, 16}, {1, 5, 9}, {1, 5, 11}, {1, 5, 13}, {1, 5, 15}},
		[][2]int{{0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}})
}

// relayChainBytes encodes, in geoNet's layout and satellites first, a chain
// of four satellites at 15° N (nodes 0–3) and their twins at 15° S (4–7) that
// hand over to each other only through relays on the equator (10–12), from
// terminal 8 to terminal 9, with fiber between relays 10 and 11.
func relayChainBytes() []byte {
	data := []byte{13 - 2}
	for _, lat := range []byte{5, 3} {
		for _, lon := range []byte{9, 11, 13, 15} {
			data = append(data, 1<<7|lat, lon)
		}
	}
	for _, lon := range []byte{8, 16, 10, 12, 14} {
		data = append(data, 4, lon)
	}
	hops := []byte{8, 10, 11, 12, 9}
	for i, sat := range []byte{0, 1, 2, 3} {
		data = append(data, hops[i], sat, sat, hops[i+1], hops[i], sat+4, sat+4, hops[i+1])
	}
	return append(data, 10, 11)
}

// relayDenseBytes encodes, in geoNet's layout, satellites at 15° N (nodes
// 0–3) and 15° S (4–7) with lasers along each row, cities on the equator
// beyond either end (8, 9), and eight relays on the equator between them,
// two at each of three points and one at each of two more, that link every
// satellite within one lattice step of longitude; each
// relay's links are listed by ascending satellite, as the Builder lists
// them, or descending.
func relayDenseBytes(ascending bool) []byte {
	data := []byte{18 - 2}
	for _, lat := range []byte{5, 3} {
		for _, lon := range []byte{9, 11, 13, 15} {
			data = append(data, 1<<7|lat, lon)
		}
	}
	relays := []byte{10, 12, 14, 10, 12, 14, 11, 13}
	for _, lon := range append([]byte{8, 16}, relays...) {
		data = append(data, 4, lon)
	}
	data = append(data, 0, 1, 1, 2, 2, 3, 4, 5, 5, 6, 6, 7, 8, 0, 8, 4, 9, 3, 9, 7)
	for i, lon := range relays {
		var sats []byte
		for s := byte(0); s < 8; s++ {
			if d := int(9+2*(s%4)) - int(lon); d >= -1 && d <= 1 {
				sats = append(sats, s)
			}
		}
		if !ascending {
			slices.Reverse(sats)
		}
		for _, s := range sats {
			data = append(data, byte(10+i), s)
		}
	}
	return data
}

// equatorialGridBytes encodes a 3 × 5 satellite grid about the equator with a
// terminal at each end, nodes 0 and 1.
func equatorialGridBytes() []byte {
	return mirrorBytes([][3]int{{0, 4, 6}, {0, 4, 14}, {1, 4, 7}, {1, 4, 9}, {1, 4, 11}, {1, 4, 13}, {1, 3, 7}, {1, 3, 9}, {1, 3, 11}, {1, 3, 13}},
		[][2]int{{0, 2}, {0, 6}, {2, 3}, {3, 4}, {4, 5}, {6, 7}, {7, 8}, {8, 9}, {2, 6}, {3, 7}, {4, 8}, {5, 9}, {5, 1}, {9, 1}})
}

// FuzzSearchGeometric holds goal-directed searches to the naive reference on
// decoded geometric networks: from the drawn source to every node, under the
// drawn bans, the target's distance (float bits), predecessor link and path,
// and the label of every node on that path, are the reference's — labels off
// the path are not compared, since the bound settles fewer nodes — and so are
// the k = 3 disjoint-path sets from every node to the drawn destination
// (KDisjointPathsTo), whose searches its tree directs. The bound must be in use on these networks, and not on
// the zero-position fuzzNet decoded from the same bytes, not even given a
// tree. Its tree-directed arm is a what-if in miniature: the drawn bans are
// the cut, each search is directed by the uncut network's full tree rooted at
// its target, and the reference is naiveDijkstra with the cut's links absent
// — the filtered network. Its overlay arm counts the terminals right after
// the satellites as cities and, where the overlay admits the network, holds
// its searches to the CSR kernel's on every node (checkGeometricOverlay).
// The seeds are mirror-symmetric, so twin routes tie exactly. In the relay
// seeds, terminals on the equator relay between satellites to either side of
// it, laid out satellites first, so a satellite and its twin offer each relay
// one label and the relay is relaxed through; fiber between two relays queues
// the second. The relay-dense seeds stack relays, two at a point, under a
// two-row satellite chain, and are overlays.
func FuzzSearchGeometric(f *testing.F) {
	f.Add(twinChainsBytes(), uint8(0), uint8(1), uint8(0))
	f.Add(equatorialGridBytes(), uint8(0), uint8(1), uint8(5))
	// Terminals only: a fiber ring about the equator and a chord across it.
	f.Add(mirrorBytes([][3]int{{0, 4, 0}, {0, 4, 12}, {0, 2, 4}, {0, 2, 8}},
		[][2]int{{0, 2}, {2, 3}, {3, 1}, {0, 1}}), uint8(1), uint8(0), uint8(0))
	// Terminals on both sides with satellites between, banned a third at a time.
	f.Add(mirrorBytes([][3]int{{0, 4, 10}, {0, 4, 14}, {0, 3, 12}, {1, 3, 11}, {1, 3, 13}, {1, 4, 12}},
		[][2]int{{0, 3}, {3, 2}, {2, 4}, {4, 1}, {0, 5}, {5, 1}, {3, 5}, {5, 4}, {0, 2}, {2, 1}}), uint8(0), uint8(1), uint8(3))
	f.Add(relayChainBytes(), uint8(8), uint8(9), uint8(0))
	f.Add(relayChainBytes(), uint8(9), uint8(10), uint8(5))
	f.Add(relayDenseBytes(true), uint8(8), uint8(9), uint8(0))
	f.Add(relayDenseBytes(false), uint8(9), uint8(8), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, srcB, dstB, banB uint8) {
		n := geoNet(data)
		if n == nil || len(n.Links) == 0 {
			t.Skip()
		}
		if n.goalTerms() == nil {
			t.Fatal("the bound is not admissible on a geometric network")
		}
		banned := map[int32]bool{}
		for li := range n.Links {
			if banB > 0 && li%int(banB) == 0 {
				banned[int32(li)] = true
			}
		}
		st := AcquireSearch()
		defer st.Release()
		for li := range banned {
			st.BanLink(li)
		}
		src := int32(int(srcB) % n.N())
		for dst := int32(0); dst < int32(n.N()); dst++ {
			requireNaivePath(t, "geometric", n, st, src, dst, banned, nil, true)
			_, row := searchTree(n, dst, nil, false)
			requireNaivePath(t, "directed by the uncut tree", n, st, src, dst, banned, row, true)
		}
		dst := int32(int(dstB) % n.N())
		every := make([]int32, n.N())
		for v := range every {
			every[v] = int32(v)
		}
		for v, set := range n.KDisjointPathsTo(dst, every, 3) {
			requireSamePaths(t, fmt.Sprintf("%d→%d disjoint paths", v, dst), set, naiveKDisjoint(n, int32(v), dst, 3))
		}

		checkGeometricOverlay(t, n)

		if zero := fuzzNet(data); zero != nil {
			plain := AcquireSearch()
			defer plain.Release()
			zsrc, zdst := src%int32(zero.N()), dst%int32(zero.N())
			_, row := searchTree(zero, zdst, nil, false)
			for _, tree := range [][]int32{nil, row} {
				zero.Search(plain, SearchSpec{Src: zsrc, Target: zdst, Tree: tree})
				if plain.goal != NoTarget || plain.tree != nil {
					t.Fatalf("a search on a zero-position network was goal-directed (given a tree: %v)", tree != nil)
				}
			}
		}
	})
}
