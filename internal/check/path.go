package check

import (
	"math"

	"leosim/internal/geo"
	"leosim/internal/graph"
)

const (
	// pathDelayTolMs absorbs summation-order rounding when re-adding link
	// delays along a path.
	pathDelayTolMs = 1e-9
	// symmetryTolMs absorbs rounding between the two directions of one
	// shortest-path computation (same links, reversed addition order) and
	// between tie-equivalent paths.
	symmetryTolMs = 1e-6
)

// CheckPath verifies that p is a well-formed simple walk from src to dst in
// n: endpoints match, every hop is a real link joining its two nodes, no
// link or node repeats, the reported delay is the sum of the link delays,
// and the delay respects the free-space propagation lower bound between the
// endpoints (light in vacuum along the taut string around the Earth).
func CheckPath(r *Report, n *graph.Network, src, dst int32, p graph.Path) {
	r.Checked("paths", 1)
	if len(p.Nodes) == 0 {
		r.Violatef(ClassPathContinuity, "path %d→%d has no nodes", src, dst)
		return
	}
	if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
		r.Violatef(ClassPathContinuity, "path %d→%d runs %d→%d",
			src, dst, p.Nodes[0], p.Nodes[len(p.Nodes)-1])
	}
	if len(p.Links) != len(p.Nodes)-1 {
		r.Violatef(ClassPathContinuity, "path %d→%d has %d nodes but %d links",
			src, dst, len(p.Nodes), len(p.Links))
		return
	}
	seenNode := make(map[int32]bool, len(p.Nodes))
	for _, v := range p.Nodes {
		if v < 0 || int(v) >= n.N() {
			r.Violatef(ClassPathContinuity, "path %d→%d visits node %d outside [0,%d)",
				src, dst, v, n.N())
			return
		}
		if seenNode[v] {
			r.Violatef(ClassPathContinuity, "path %d→%d visits node %d twice", src, dst, v)
		}
		seenNode[v] = true
	}
	var sum float64
	seenLink := make(map[int32]bool, len(p.Links))
	for i, li := range p.Links {
		if li < 0 || int(li) >= len(n.Links) {
			r.Violatef(ClassPathContinuity, "path %d→%d hop %d uses phantom link %d",
				src, dst, i, li)
			return
		}
		if seenLink[li] {
			r.Violatef(ClassPathContinuity, "path %d→%d crosses link %d twice", src, dst, li)
		}
		seenLink[li] = true
		l := n.Links[li]
		a, b := p.Nodes[i], p.Nodes[i+1]
		if !(l.A == a && l.B == b) && !(l.A == b && l.B == a) {
			r.Violatef(ClassPathContinuity,
				"path %d→%d hop %d: link %d joins %d–%d, path claims %d–%d",
				src, dst, i, li, l.A, l.B, a, b)
		}
		sum += l.OneWayMs
	}
	if math.Abs(sum-p.OneWayMs) > pathDelayTolMs {
		r.Violatef(ClassPathContinuity,
			"path %d→%d reports %.9f ms, its links sum to %.9f ms",
			src, dst, p.OneWayMs, sum)
	}
	if lb := FreeSpaceLowerBoundMs(n.Pos[src], n.Pos[dst]); p.OneWayMs < lb-pathDelayTolMs {
		r.Violatef(ClassLatencyBound,
			"path %d→%d delay %.6f ms beats the free-space lower bound %.6f ms",
			src, dst, p.OneWayMs, lb)
	}
}

// FreeSpaceLowerBoundMs returns the physical one-way delay floor between two
// positions: light in vacuum along the shortest curve that clears the
// Earth's surface. No route through any network — radio, laser or fiber —
// can beat it.
func FreeSpaceLowerBoundMs(a, b geo.Vec3) float64 {
	return geo.MinFreeSpacePathKm(a, b) / geo.LightSpeed * 1000
}

// CheckSymmetry verifies that shortest-path delay over the undirected
// snapshot graph is direction-independent for the pair.
func CheckSymmetry(r *Report, n *graph.Network, src, dst int32) {
	r.Checked("symmetry-pairs", 1)
	fwd, okF := n.ShortestPath(src, dst)
	rev, okR := n.ShortestPath(dst, src)
	if okF != okR {
		r.Violatef(ClassLatencySymmetry,
			"pair %d↔%d reachable only one way (fwd=%v rev=%v)", src, dst, okF, okR)
		return
	}
	if okF && math.Abs(fwd.OneWayMs-rev.OneWayMs) > symmetryTolMs {
		r.Violatef(ClassLatencySymmetry,
			"pair %d↔%d: %.6f ms forward vs %.6f ms reverse",
			src, dst, fwd.OneWayMs, rev.OneWayMs)
	}
}

// CheckDominance verifies the paper's Hybrid-dominates-BP property for one
// pair: hybrid's link set is a strict superset of bent-pipe's (same GSLs
// plus ISLs), so its shortest path can never be slower.
func CheckDominance(r *Report, bp, hybrid *graph.Network, src, dst int32) {
	r.Checked("dominance-pairs", 1)
	pb, okB := bp.ShortestPath(src, dst)
	ph, okH := hybrid.ShortestPath(src, dst)
	if okB && !okH {
		r.Violatef(ClassDominance,
			"pair %d→%d reachable under BP but not under Hybrid", src, dst)
		return
	}
	if okB && okH && ph.OneWayMs > pb.OneWayMs+symmetryTolMs {
		r.Violatef(ClassDominance,
			"pair %d→%d: Hybrid %.6f ms slower than BP %.6f ms",
			src, dst, ph.OneWayMs, pb.OneWayMs)
	}
}

// CheckOptimality verifies the optimized Dijkstra kernel against the naive
// linear-scan reference for one pair, and validates the kernel's path. The
// two implementations share no code beyond the graph representation.
func CheckOptimality(r *Report, n *graph.Network, src, dst int32, satTransitOnly bool) {
	r.Checked("optimality-pairs", 1)
	st := graph.AcquireSearch()
	defer st.Release()
	n.Search(st, graph.SearchSpec{Src: src, Target: dst, SatTransit: satTransitOnly})
	p, ok := st.Path(dst)
	want, reach := NaiveShortestMs(n, src, dst, satTransitOnly)
	if ok != reach {
		r.Violatef(ClassOptimality,
			"pair %d→%d: kernel reachable=%v, reference says %v", src, dst, ok, reach)
		return
	}
	if !ok {
		return
	}
	CheckPath(r, n, src, dst, p)
	if math.Abs(p.OneWayMs-want) > pathDelayTolMs+1e-12*want {
		r.Violatef(ClassOptimality,
			"pair %d→%d: kernel found %.9f ms, reference Dijkstra %.9f ms",
			src, dst, p.OneWayMs, want)
	}
}
