package graph

import (
	"testing"

	"leosim/internal/aircraft"
	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/ground"
	"leosim/internal/telemetry"
)

// benchGrid builds a rows×cols torus-grid network with nodes placed on a
// lat/lon lattice, so link delays vary with latitude (realistic, few exact
// ties) and every interior pair has ≥ 4 edge-disjoint paths. Corner nodes
// are cities, the rest satellites, so transit-restricted searches have work
// to do.
func benchGrid(rows, cols int) *Network {
	n := &Network{}
	node := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			lat := -60 + 120*float64(r)/float64(rows-1)
			lon := -180 + 360*float64(c)/float64(cols)
			kind := NodeSatellite
			alt := 550.0
			if (r == 0 || r == rows-1) && (c == 0 || c == cols-1) {
				kind = NodeCity
				alt = 0
			}
			n.AddNode(kind, geo.LatLon{Lat: lat, Lon: lon, Alt: alt}.ToECEF(), "")
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n.AddLink(node(r, c), node(r, (c+1)%cols), LinkISL, 100)
			if r+1 < rows {
				n.AddLink(node(r, c), node(r+1, c), LinkISL, 100)
			}
		}
	}
	return n
}

// BenchmarkShortestPath measures the targeted (early-exit) search plus path
// extraction for a cross-grid pair.
func BenchmarkShortestPath(b *testing.B) {
	n := benchGrid(80, 100)
	src, dst := int32(0), int32(n.N()-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := n.ShortestPath(src, dst)
		if !ok || p.Hops() == 0 {
			b.Fatal("no path")
		}
	}
}

// BenchmarkKDisjoint measures the §5 routing primitive: k=4 edge-disjoint
// shortest paths between opposite grid corners.
func BenchmarkKDisjoint(b *testing.B) {
	n := benchGrid(80, 100)
	// Interior nodes: torus columns + bounded rows give corners degree 3,
	// interior degree 4, so k=4 disjoint paths need an interior pair.
	src, dst := int32(40*100), int32(40*100+50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := n.KDisjointPaths(src, dst, 4)
		if len(paths) != 4 {
			b.Fatalf("got %d paths", len(paths))
		}
	}
}

// BenchmarkSearch measures the raw kernel loop (pooled state, no slice
// materialization) with telemetry disabled — the configuration every batch
// run starts in; bench/'s graph.search_tree_ms times the same call on the
// reduced-scale network. The disabled-path cost is one atomic load.
func BenchmarkSearch(b *testing.B) {
	telemetry.Disable()
	n := benchGrid(80, 100)
	st := AcquireSearch()
	defer st.Release()
	spec := SearchSpec{Src: 0, Target: NoTarget}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.Search(st, spec) {
			b.Fatal("search stopped")
		}
	}
}

// reducedBPSnapshot builds the bent-pipe network of a reduced-scale snapshot
// at the epoch: 150 cities, 2.5° relays, aircraft at density 0.5 —
// core.ReducedScale's ground segment.
func reducedBPSnapshot(b *testing.B) *Network {
	b.Helper()
	c, err := constellation.New([]constellation.Shell{constellation.StarlinkPhase1()}, constellation.WithISLs())
	if err != nil {
		b.Fatal(err)
	}
	cities, err := ground.Cities(150)
	if err != nil {
		b.Fatal(err)
	}
	seg, err := ground.NewSegment(cities, 2.5, 2000)
	if err != nil {
		b.Fatal(err)
	}
	fleet, err := aircraft.NewFleet(0.5)
	if err != nil {
		b.Fatal(err)
	}
	bld, err := NewBuilder(c, seg, fleet, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return bld.At(geo.Epoch)
}

// pairGroupOffsets are the cities BenchmarkSearchTargets gives each source
// city as destinations, and BenchmarkKDisjointTo each destination city as
// sources, as offsets from it: a pair group's three other ends.
var pairGroupOffsets = []int{37, 74, 111}

// BenchmarkSearchTargets measures what a day sweep's tree costs on the
// reduced-scale bent-pipe snapshot: a full tree, against the same search
// stopped once three destination cities are settled, which is what a pair
// group asks for. Sources cycle through the cities; queued/node reports the
// share of nodes each variant queues (the rest it reaches are relaxed
// through, or not reached).
func BenchmarkSearchTargets(b *testing.B) {
	telemetry.Disable()
	n := reducedBPSnapshot(b)
	for _, bc := range []struct {
		name    string
		offsets []int // destination cities, as offsets from the source city
	}{{"full", nil}, {"3cities", pairGroupOffsets}} {
		b.Run(bc.name, func(b *testing.B) {
			st := AcquireSearch()
			defer st.Release()
			specs := make([]SearchSpec, n.NumCity)
			queued := 0
			for src := range specs {
				specs[src] = SearchSpec{Src: n.CityNode(src), Target: NoTarget}
				for _, k := range bc.offsets {
					specs[src].Targets = append(specs[src].Targets, n.CityNode((src+k)%n.NumCity))
				}
				n.Search(st, specs[src])
				for v := int32(0); v < int32(n.N()); v++ {
					if st.Reached(v) && st.node[v].pos != posPassed {
						queued++
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !n.Search(st, specs[i%len(specs)]) {
					b.Fatal("search stopped")
				}
			}
			b.ReportMetric(float64(queued)/float64(len(specs)*n.N()), "queued/node")
		})
	}
}

// kDisjointSink keeps the benchmarked path sets alive.
var kDisjointSink [][]Path

// BenchmarkKDisjointTo measures one destination's pair group at k = 4 on the
// reduced-scale bent-pipe snapshot, three source cities peeled four ways:
// each search under the free-space bound, written out; three KDisjointPaths
// calls; one KDisjointPathsTo on the CSR, which grows no ball, so its searches
// are the free-space ones; and one on the relay overlay, whose one ball
// directs all twelve searches. Destinations cycle through the cities.
func BenchmarkKDisjointTo(b *testing.B) {
	telemetry.Disable()
	n := reducedBPSnapshot(b)
	srcs := make([][]int32, n.NumCity)
	for dst := range srcs {
		for _, k := range pairGroupOffsets {
			srcs[dst] = append(srcs[dst], n.CityNode((dst+k)%n.NumCity))
		}
	}
	b.Run("free-space", func(b *testing.B) {
		b.ReportAllocs()
		st := AcquireSearch()
		defer st.Release()
		for i := 0; i < b.N; i++ {
			dst := i % n.NumCity
			kDisjointSink = kDisjointSink[:0]
			for _, src := range srcs[dst] {
				var set []Path
				st.ClearBans()
				for len(set) < 4 {
					n.Search(st, SearchSpec{Src: src, Target: n.CityNode(dst)})
					p, ok := st.Path(n.CityNode(dst))
					if !ok {
						break
					}
					set = append(set, p)
					for _, li := range p.Links {
						st.BanLink(li)
					}
				}
				kDisjointSink = append(kDisjointSink, set)
			}
		}
	})
	b.Run("per-source", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst := i % n.NumCity
			kDisjointSink = kDisjointSink[:0]
			for _, src := range srcs[dst] {
				kDisjointSink = append(kDisjointSink, n.KDisjointPaths(src, n.CityNode(dst), 4))
			}
		}
	})
	for _, ov := range []*Overlay{{net: n}, NewOverlay(n, n.NumCity)} {
		name := "csr"
		if ov.n > 0 {
			name = "overlay"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst := i % n.NumCity
				kDisjointSink = ov.KDisjointPathsTo(n.CityNode(dst), srcs[dst], 4)
			}
		})
	}
}

// BenchmarkSearchTelemetryEnabled is the same kernel loop with the metrics
// registry installed: the span observes one histogram bucket per search.
func BenchmarkSearchTelemetryEnabled(b *testing.B) {
	telemetry.Enable()
	defer telemetry.Disable()
	n := benchGrid(80, 100)
	st := AcquireSearch()
	defer st.Release()
	spec := SearchSpec{Src: 0, Target: NoTarget}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.Search(st, spec) {
			b.Fatal("search stopped")
		}
	}
}
