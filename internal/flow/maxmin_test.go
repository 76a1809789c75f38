package flow

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"leosim/internal/geo"
	"leosim/internal/graph"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleLinkFairShare(t *testing.T) {
	// Three flows across one link of capacity 3 → 1 each.
	p := NewProblem([]float64{3})
	for i := 0; i < 3; i++ {
		p.AddFlow([]int32{0})
	}
	alloc, err := p.MaxMinFair()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range alloc {
		if !almostEq(a, 1, 1e-12) {
			t.Errorf("flow %d = %v, want 1", i, a)
		}
	}
	if !almostEq(Sum(alloc), 3, 1e-12) {
		t.Errorf("sum = %v", Sum(alloc))
	}
}

func TestClassicTwoLink(t *testing.T) {
	// Flow A crosses link0 (cap 1) and link1 (cap 10); flow B only link1.
	// Max-min: A = 1 (bottleneck link0), B = 9.
	p := NewProblem([]float64{1, 10})
	a := p.AddFlow([]int32{0, 1})
	b := p.AddFlow([]int32{1})
	alloc, err := p.MaxMinFair()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(alloc[a], 1, 1e-12) {
		t.Errorf("A = %v, want 1", alloc[a])
	}
	if !almostEq(alloc[b], 9, 1e-12) {
		t.Errorf("B = %v, want 9", alloc[b])
	}
	if err := p.Validate(alloc, 1e-9); err != nil {
		t.Error(err)
	}
}

func TestParkingLot(t *testing.T) {
	// Parking-lot topology: long flow over links 0,1,2 (cap 1 each), and a
	// short flow on each link. Max-min: every flow gets 0.5.
	p := NewProblem([]float64{1, 1, 1})
	long := p.AddFlow([]int32{0, 1, 2})
	shorts := []int{p.AddFlow([]int32{0}), p.AddFlow([]int32{1}), p.AddFlow([]int32{2})}
	alloc, err := p.MaxMinFair()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(alloc[long], 0.5, 1e-12) {
		t.Errorf("long = %v", alloc[long])
	}
	for _, s := range shorts {
		if !almostEq(alloc[s], 0.5, 1e-12) {
			t.Errorf("short %d = %v", s, alloc[s])
		}
	}
}

func TestHeterogeneousBottlenecks(t *testing.T) {
	// link0 cap 2 shared by f0,f1; link1 cap 10 shared by f1,f2.
	// f0=1, f1=1 (link0 bottleneck); f2 = 9.
	p := NewProblem([]float64{2, 10})
	f0 := p.AddFlow([]int32{0})
	f1 := p.AddFlow([]int32{0, 1})
	f2 := p.AddFlow([]int32{1})
	alloc, _ := p.MaxMinFair()
	if !almostEq(alloc[f0], 1, 1e-12) || !almostEq(alloc[f1], 1, 1e-12) ||
		!almostEq(alloc[f2], 9, 1e-12) {
		t.Errorf("alloc = %v, want [1 1 9]", alloc)
	}
}

func TestZeroCapacityAndEmptyFlow(t *testing.T) {
	p := NewProblem([]float64{0, 5})
	dead := p.AddFlow([]int32{0, 1})
	live := p.AddFlow([]int32{1})
	empty := p.AddFlow(nil)
	alloc, err := p.MaxMinFair()
	if err != nil {
		t.Fatal(err)
	}
	if alloc[dead] != 0 {
		t.Errorf("flow over zero-capacity edge = %v", alloc[dead])
	}
	if !almostEq(alloc[live], 5, 1e-12) {
		t.Errorf("live flow = %v", alloc[live])
	}
	if alloc[empty] != 0 {
		t.Errorf("pathless flow = %v", alloc[empty])
	}
}

func TestRepeatedEdgeCountsOnce(t *testing.T) {
	// A flow listed twice on the same edge must not double-count.
	p := NewProblem([]float64{4})
	f0 := p.AddFlow([]int32{0, 0})
	f1 := p.AddFlow([]int32{0})
	alloc, _ := p.MaxMinFair()
	if !almostEq(alloc[f0], 2, 1e-12) || !almostEq(alloc[f1], 2, 1e-12) {
		t.Errorf("alloc = %v, want [2 2]", alloc)
	}
}

func TestInvalidEdge(t *testing.T) {
	p := NewProblem([]float64{1})
	p.AddFlow([]int32{5})
	if _, err := p.MaxMinFair(); err == nil {
		t.Errorf("out-of-range edge must error")
	}
	if _, err := p.BottleneckApprox(); err == nil {
		t.Errorf("out-of-range edge must error in approx too")
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem(nil)
	alloc, err := p.MaxMinFair()
	if err != nil || len(alloc) != 0 {
		t.Errorf("empty problem: %v %v", alloc, err)
	}
}

func TestBottleneckApproxUnderestimates(t *testing.T) {
	p := NewProblem([]float64{1, 10})
	p.AddFlow([]int32{0, 1})
	p.AddFlow([]int32{1})
	exact, _ := p.MaxMinFair()
	approx, _ := p.BottleneckApprox()
	if Sum(approx) > Sum(exact)+1e-12 {
		t.Errorf("approx %v exceeds exact %v", Sum(approx), Sum(exact))
	}
	// Approx flow B: min(10/2)=5 < 9.
	if !almostEq(approx[1], 5, 1e-12) {
		t.Errorf("approx B = %v, want 5", approx[1])
	}
}

// Property: max-min fair allocations never oversubscribe any edge and are
// Pareto-efficient on every flow's bottleneck (no flow can be increased
// without an edge exceeding capacity).
func TestMaxMinFairProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ne := 2 + rng.Intn(20)
		caps := make([]float64, ne)
		for i := range caps {
			caps[i] = 1 + rng.Float64()*20
		}
		p := NewProblem(caps)
		nf := 1 + rng.Intn(30)
		for i := 0; i < nf; i++ {
			l := 1 + rng.Intn(4)
			edges := make([]int32, l)
			for j := range edges {
				edges[j] = int32(rng.Intn(ne))
			}
			p.AddFlow(edges)
		}
		alloc, err := p.MaxMinFair()
		if err != nil {
			return false
		}
		if err := p.Validate(alloc, 1e-6); err != nil {
			return false
		}
		// Pareto check: every flow has at least one saturated edge.
		used := make([]float64, ne)
		for fi, edges := range p.flowEdges {
			seen := map[int32]bool{}
			for _, e := range edges {
				if !seen[e] {
					seen[e] = true
					used[e] += alloc[fi]
				}
			}
		}
		for fi, edges := range p.flowEdges {
			saturated := false
			for _, e := range edges {
				if used[e] >= caps[e]-1e-6 {
					saturated = true
					break
				}
			}
			if !saturated {
				_ = fi
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: water-filling allocations are "fair": sorted allocation vector
// lexicographically dominates the single-pass approximation's.
func TestExactDominatesApprox(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ne := 2 + rng.Intn(10)
		caps := make([]float64, ne)
		for i := range caps {
			caps[i] = 1 + rng.Float64()*10
		}
		p := NewProblem(caps)
		for i := 0; i < 1+rng.Intn(15); i++ {
			edges := []int32{int32(rng.Intn(ne))}
			if rng.Intn(2) == 0 {
				edges = append(edges, int32(rng.Intn(ne)))
			}
			p.AddFlow(edges)
		}
		exact, _ := p.MaxMinFair()
		approx, _ := p.BottleneckApprox()
		a := append([]float64(nil), exact...)
		b := append([]float64(nil), approx...)
		sort.Float64s(a)
		sort.Float64s(b)
		for i := range a {
			if a[i] < b[i]-1e-9 {
				return false
			}
			if a[i] > b[i]+1e-9 {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedEdgesBridge(t *testing.T) {
	n := &graph.Network{}
	a := n.AddNode(graph.NodeCity, geo.LL(0, 0).ToECEF(), "a")
	s := n.AddNode(graph.NodeSatellite, geo.LatLon{Lat: 0, Lon: 5, Alt: 550}.ToECEF(), "s")
	b := n.AddNode(graph.NodeCity, geo.LL(0, 10).ToECEF(), "b")
	n.AddLink(a, s, graph.LinkGSL, 20)
	n.AddLink(s, b, graph.LinkGSL, 20)
	p, ok := n.ShortestPath(a, b)
	if !ok {
		t.Fatal("no path")
	}
	edges, err := DirectedEdges(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	// Link 0 traversed A→B (a is link.A) → id 0; link 1 traversed A→B
	// (s is link.A) → id 2.
	if edges[0] != 0 || edges[1] != 2 {
		t.Errorf("edges = %v, want [0 2]", edges)
	}
	// Reverse path uses the opposite directions.
	rp, _ := n.ShortestPath(b, a)
	redges, _ := DirectedEdges(n, rp)
	if redges[0] != 3 || redges[1] != 1 {
		t.Errorf("reverse edges = %v, want [3 1]", redges)
	}

	pr := NewNetworkProblem(n, 0)
	if len(pr.cap) != 4 {
		t.Fatalf("problem has %d directed edges", len(pr.cap))
	}
	id, err := pr.AddPath(p)
	if err != nil || id != 0 {
		t.Fatalf("AddPath: %v %v", id, err)
	}
	alloc, _ := pr.MaxMinFair()
	if !almostEq(alloc[0], 20, 1e-12) {
		t.Errorf("single flow gets full capacity, got %v", alloc[0])
	}
}

func TestDirectedEdgesMalformed(t *testing.T) {
	n := &graph.Network{}
	n.AddNode(graph.NodeCity, geo.LL(0, 0).ToECEF(), "a")
	bad := graph.Path{Nodes: []int32{0}, Links: []int32{0}}
	if _, err := DirectedEdges(n, bad); err == nil {
		t.Errorf("malformed path must error")
	}
}

func TestProblemAccessors(t *testing.T) {
	pr := NewProblem([]float64{1, 2})
	if pr.NumFlows() != 0 {
		t.Errorf("fresh problem has %d flows", pr.NumFlows())
	}
	pr.AddFlow([]int32{0})
	pr.AddFlow([]int32{1})
	if pr.NumFlows() != 2 {
		t.Errorf("NumFlows = %d", pr.NumFlows())
	}
}

func TestMaxFlowNodes(t *testing.T) {
	m := NewMaxFlowNet(3)
	if len(m.head) != 3 {
		t.Errorf("Nodes = %d", len(m.head))
	}
	if id := m.AddNode(); id != 3 || len(m.head) != 4 {
		t.Errorf("AddNode = %d, Nodes = %d", id, len(m.head))
	}
}
