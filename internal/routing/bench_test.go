package routing

import (
	"testing"

	"leosim/internal/geo"
	"leosim/internal/graph"
)

// benchGrid mirrors the graph package's bench topology: a rows×cols torus
// grid on a lat/lon lattice.
func benchGrid(rows, cols int) *graph.Network {
	n := &graph.Network{}
	node := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			lat := -60 + 120*float64(r)/float64(rows-1)
			lon := -180 + 360*float64(c)/float64(cols)
			n.AddNode(graph.NodeSatellite, geo.LatLon{Lat: lat, Lon: lon, Alt: 550}.ToECEF(), "")
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			n.AddLink(node(r, c), node(r, (c+1)%cols), graph.LinkISL, 100)
			if r+1 < rows {
				n.AddLink(node(r, c), node(r+1, c), graph.LinkISL, 100)
			}
		}
	}
	return n
}

// BenchmarkMinMaxUtilization measures the congestion-aware router on 64
// demands × 4 sub-flows over a 2k-node grid — the §5 future-work scheme's
// hot loop (one cost-weighted Dijkstra per sub-flow).
func BenchmarkMinMaxUtilization(b *testing.B) {
	n := benchGrid(40, 50)
	var demands []Demand
	nn := int32(n.N())
	for i := 0; i < 64; i++ {
		src := int32(i * 31 % int(nn))
		dst := (src + nn/2) % nn
		demands = append(demands, Demand{Src: src, Dst: dst, K: 4})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asgs, err := MinMaxUtilization(n, demands)
		if err != nil {
			b.Fatal(err)
		}
		if len(asgs) != len(demands) {
			b.Fatal("missing assignments")
		}
	}
}
