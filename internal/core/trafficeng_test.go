package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"leosim/internal/geo"
	"leosim/internal/graph"
)

func TestRunTrafficEngineering(t *testing.T) {
	s := getTinySim(t)
	r, err := RunTrafficEngineering(context.Background(), s, Hybrid, 4, s.SnapshotTimes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.ShortestGbps <= 0 || r.TEGbps <= 0 {
		t.Fatalf("throughputs must be positive: %+v", r)
	}
	// The greedy TE heuristic may win or lose a little at light load, but
	// must never collapse relative to the baseline.
	if r.TEGbps < 0.8*r.ShortestGbps {
		t.Errorf("TE throughput %v collapsed vs shortest %v", r.TEGbps, r.ShortestGbps)
	}
	// TE spreads load: nominal max utilization stays finite and sane.
	if r.TEMaxUtil <= 0 || math.IsInf(r.TEMaxUtil, 1) {
		t.Errorf("max utilization = %v", r.TEMaxUtil)
	}
	// TE never shortens paths below the delay-optimal baseline.
	if r.TEDelayMs < r.ShortestDelayMs-1e-9 {
		t.Errorf("TE mean delay %v below shortest-path %v — impossible",
			r.TEDelayMs, r.ShortestDelayMs)
	}
	if g := r.ThroughputGainFrac(); g < -0.2 || g > 10 {
		t.Errorf("gain fraction %v out of band", g)
	}
	var buf bytes.Buffer
	WriteTEReport(&buf, r)
	if !strings.Contains(buf.String(), "min-max-util") {
		t.Errorf("report:\n%s", buf.String())
	}
}

func TestValidationErrors(t *testing.T) {
	s := getTinySim(t)
	for _, k := range []int{0, -1} {
		if _, err := RunTrafficEngineering(context.Background(), s, Hybrid, k, s.SnapshotTimes()[0]); err == nil {
			t.Errorf("k=%d must error", k)
		}
	}
}

// twoCorridorNet: cities 0 and 1 are connected by a short corridor (one
// link) and a longer detour (two links), so a congestion-aware router facing
// many demands must start using the detour.
func twoCorridorNet() *graph.Network {
	n := &graph.Network{}
	a := n.AddNode(graph.NodeCity, geo.LL(0, 0).ToECEF(), "a")
	b := n.AddNode(graph.NodeCity, geo.LL(0, 20).ToECEF(), "b")
	mid := n.AddNode(graph.NodeSatellite, geo.LatLon{Lat: 15, Lon: 10, Alt: 550}.ToECEF(), "detour")
	n.AddLink(a, b, graph.LinkISL, 10)    // direct, cheap delay, small capacity
	n.AddLink(a, mid, graph.LinkISL, 100) // detour legs, big capacity
	n.AddLink(mid, b, graph.LinkISL, 100)
	return n
}

func TestShortestDelayWhenUncongested(t *testing.T) {
	n := twoCorridorNet()
	paths, _ := minMaxUtilization(n, []Pair{{Src: 0, Dst: 1}}, 1)
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("paths: %+v", paths)
	}
	if paths[0][0].Hops() != 1 {
		t.Errorf("single uncongested demand should take the direct link")
	}
}

func TestCongestionSpreadsLoad(t *testing.T) {
	n := twoCorridorNet()
	// 30 demands × 1 Gbps nominal on a 10 Gbps direct link: the router
	// must shift a substantial share onto the detour.
	pairs := make([]Pair, 30)
	for i := range pairs {
		pairs[i] = Pair{Src: 0, Dst: 1}
	}
	paths, load := minMaxUtilization(n, pairs, 1)
	direct, detour := 0, 0
	var delaySum float64
	for _, pp := range paths {
		if len(pp) != 1 {
			t.Fatalf("demand unrouted: %+v", pp)
		}
		if pp[0].Hops() == 1 {
			direct++
		} else {
			detour++
		}
		delaySum += pp[0].OneWayMs
	}
	if detour == 0 {
		t.Fatalf("congestion-aware router never used the detour (direct=%d)", direct)
	}
	if direct == 0 {
		t.Fatalf("router abandoned the direct link entirely")
	}
	// Max utilization must beat pure shortest-path routing (which puts
	// all 30 on the 10 Gbps link → utilization 3.0).
	mu := 0.0
	for li, l := range n.Links {
		mu = math.Max(mu, load[li]/l.CapGbps)
	}
	if mu >= 3.0 {
		t.Errorf("max utilization %v not improved over shortest-path 3.0", mu)
	}
	// And the mean delay is higher than the pure-direct delay — the
	// latency cost the paper predicts.
	shortest, _ := n.ShortestPath(0, 1)
	if delaySum/float64(len(paths)) <= shortest.OneWayMs {
		t.Errorf("traffic engineering should cost latency")
	}
}

func TestDisjointWithinDemand(t *testing.T) {
	n := twoCorridorNet()
	paths, _ := minMaxUtilization(n, []Pair{{Src: 0, Dst: 1}}, 2)
	if len(paths[0]) != 2 {
		t.Fatalf("want 2 disjoint paths, got %d", len(paths[0]))
	}
	used := map[int32]bool{}
	for _, p := range paths[0] {
		for _, li := range p.Links {
			if used[li] {
				t.Fatalf("link %d reused across sub-flows", li)
			}
			used[li] = true
		}
	}
	// K beyond the disjoint capacity yields fewer paths, not an error.
	paths, _ = minMaxUtilization(n, []Pair{{Src: 0, Dst: 1}}, 5)
	if len(paths[0]) != 2 {
		t.Errorf("only 2 disjoint routes exist, got %d", len(paths[0]))
	}
}

func TestUnroutableDemand(t *testing.T) {
	n := &graph.Network{}
	n.AddNode(graph.NodeCity, geo.LL(0, 0).ToECEF(), "a")
	n.AddNode(graph.NodeCity, geo.LL(0, 50).ToECEF(), "b")
	paths, load := minMaxUtilization(n, []Pair{{Src: 0, Dst: 1}}, 1)
	if len(paths[0]) != 0 {
		t.Errorf("disconnected demand should have no paths")
	}
	if len(load) != 0 {
		t.Errorf("no links → no load, got %v", load)
	}
}

func TestDeterminism(t *testing.T) {
	n := twoCorridorNet()
	pairs := []Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
	x, _ := minMaxUtilization(n, pairs, 2)
	y, _ := minMaxUtilization(n, pairs, 2)
	for i := range x {
		if len(x[i]) != len(y[i]) {
			t.Fatalf("non-deterministic path counts")
		}
		for j := range x[i] {
			if x[i][j].OneWayMs != y[i][j].OneWayMs {
				t.Fatalf("non-deterministic routing")
			}
		}
	}
}

// BenchmarkMinMaxUtilization measures the congestion-aware router on 64
// demands × 4 sub-flows over a 2k-node torus grid on a lat/lon lattice — the
// §5 future-work scheme's hot loop (one cost-weighted search per sub-flow).
func BenchmarkMinMaxUtilization(b *testing.B) {
	const rows, cols = 40, 50
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
	// With no satellites counted, CityNode(i) is node i.
	var pairs []Pair
	nn := n.N()
	for i := 0; i < 64; i++ {
		src := i * 31 % nn
		pairs = append(pairs, Pair{Src: src, Dst: (src + nn/2) % nn})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths, _ := minMaxUtilization(n, pairs, 4); len(paths) != len(pairs) {
			b.Fatal("missing paths")
		}
	}
}
