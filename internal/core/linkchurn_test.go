package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/topo"
)

func TestRunChurnDeterministic(t *testing.T) {
	s := getTinySim(t)
	a := Args{ChurnStep: 2 * time.Second, ChurnWindow: 20 * time.Second}
	r1, err := RunChurn(context.Background(), s, a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunChurn(context.Background(), s, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("churn not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestRunChurnShape(t *testing.T) {
	s := getTinySim(t)
	r, err := RunChurn(context.Background(), s, Args{ChurnStep: 2 * time.Second, ChurnWindow: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps != 10 {
		t.Fatalf("steps = %d, want 10", r.Steps)
	}
	for _, m := range []Mode{BP, Hybrid} {
		st, ok := r.Modes[m]
		if !ok || st.PairsUsed == 0 {
			t.Fatalf("mode %s missing or empty: %+v", m, st)
		}
		if st.RouteChangesPerMin < st.UplinkHandoversPerMin {
			t.Fatalf("%s: uplink handovers (%.2f/min) exceed route changes (%.2f/min) — a handover is a route change",
				m, st.UplinkHandoversPerMin, st.RouteChangesPerMin)
		}
	}
	if r.GSLAppearPerStep < 0 || r.GSLVanishPerStep < 0 {
		t.Fatalf("negative GSL rates: %+v", r)
	}

	var sb strings.Builder
	WriteChurnReport(&sb, r)
	out := sb.String()
	for _, want := range []string{"churn window=", "GSL edges", "bp", "hybrid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunChurnValidation(t *testing.T) {
	s := getTinySim(t)
	for _, a := range []Args{
		{ChurnStep: time.Minute, ChurnWindow: time.Second},
		{ChurnStep: 0, ChurnWindow: time.Minute},
		{ChurnStep: -time.Second, ChurnWindow: time.Minute},
	} {
		if _, err := RunChurn(context.Background(), s, a); err == nil {
			t.Errorf("step %v, window %v accepted", a.ChurnStep, a.ChurnWindow)
		}
		if _, err := RunTopo(context.Background(), s, a); err == nil {
			t.Errorf("topo: step %v, window %v accepted", a.ChurnStep, a.ChurnWindow)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunChurn(ctx, s, DefaultArgs()); err != context.Canceled {
		t.Fatalf("cancelled churn returned %v", err)
	}
}

// TestChurnPathsMatchShortestPath: the churn walk's per-source stopped
// searches (pairPaths) find, for every wanted pair, the path ShortestPath
// finds, node for node and bit for bit — with every pair wanted and with
// every other one, on tiny and reduced, under both modes, for the default
// motif and nearest. They do the same on the pair lists other experiments
// pass — gsoimpact's equatorial pairs and a one-pair list outside s.Pairs,
// as RunPairWeather passes — under both modes, and under §6's
// satellite-transit rule on the hybrid network they find the path a
// single-pair Search under the same rule finds, for s.Pairs and both lists.
func TestChurnPathsMatchShortestPath(t *testing.T) {
	ctx := context.Background()
	for _, scale := range []Scale{TinyScale(), ReducedScale()} {
		for _, motif := range []topo.ID{topo.PlusGrid, topo.Nearest} {
			t.Run(scale.Name+"/"+motif.String(), func(t *testing.T) {
				if scale.Name != "tiny" && testing.Short() {
					t.Skip("a reduced instant is seconds of searches")
				}
				s, err := NewSim(Starlink, scale, WithMotifID(motif))
				if err != nil {
					t.Fatal(err)
				}
				all, alternate := make([]bool, len(s.Pairs)), make([]bool, len(s.Pairs))
				for pi := range all {
					all[pi], alternate[pi] = true, pi%2 == 0
				}
				at := geo.Epoch.Add(90 * time.Second)
				nets := map[Mode]*graph.Network{BP: s.NewWalker(BP).At(at), Hybrid: s.NewWalker(Hybrid).At(at)}
				routed := 0
				for _, mode := range []Mode{BP, Hybrid} {
					n := nets[mode]
					for _, want := range [][]bool{all, alternate} {
						got, err := pairPaths(ctx, graph.View{N: n}, s.Pairs, want, false)
						if err != nil {
							t.Fatal(err)
						}
						for pi, p := range s.Pairs {
							var ref graph.Path
							if want[pi] {
								ref, _ = n.ShortestPath(n.CityNode(p.Src), n.CityNode(p.Dst))
							}
							if !reflect.DeepEqual(got[pi], ref) {
								t.Fatalf("%s: pair %d (%d→%d): pairPaths %v, ShortestPath %v",
									mode, pi, p.Src, p.Dst, got[pi].Nodes, ref.Nodes)
							}
							if len(ref.Nodes) > 0 {
								routed++
							}
						}
					}
				}
				if routed == 0 {
					t.Fatal("no pair routed: the comparison is vacuous")
				}

				eq, outside := s.equatorialPairs(), []Pair{outsidePair(s)}
				bp, hy := nets[BP], nets[Hybrid]
				for _, c := range []struct {
					label   string
					pairs   []Pair
					n       *graph.Network
					transit bool
				}{
					{"bp, equatorial pairs", eq, bp, false},
					{"hybrid, equatorial pairs", eq, hy, false},
					{"bp, one pair outside s.Pairs", outside, bp, false},
					{"hybrid, one pair outside s.Pairs", outside, hy, false},
					{"hybrid satellite transit", s.Pairs, hy, true},
					{"hybrid satellite transit, equatorial pairs", eq, hy, true},
					{"hybrid satellite transit, one pair outside s.Pairs", outside, hy, true},
				} {
					if len(c.pairs) == 0 {
						t.Fatalf("%s: no pairs: the comparison is vacuous", c.label)
					}
					got, err := pairPaths(ctx, graph.View{N: c.n}, c.pairs, nil, c.transit)
					if err != nil {
						t.Fatal(err)
					}
					routed := 0
					for pi, p := range c.pairs {
						src, dst := c.n.CityNode(p.Src), c.n.CityNode(p.Dst)
						st := graph.AcquireSearch()
						c.n.Search(st, graph.SearchSpec{Src: src, Target: dst, SatTransit: c.transit})
						ref, _ := st.Path(dst)
						st.Release()
						if !reflect.DeepEqual(got[pi], ref) {
							t.Fatalf("%s: pair %d (%d→%d): pairPaths %v, single-pair search %v",
								c.label, pi, p.Src, p.Dst, got[pi].Nodes, ref.Nodes)
						}
						if len(ref.Nodes) > 0 {
							routed++
						}
					}
					if routed == 0 {
						t.Fatalf("%s: no pair routed: the comparison is vacuous", c.label)
					}
				}
			})
		}
	}
}

// outsidePair is a city pair of s that s.Pairs does not hold — the kind of
// pair RunPairWeather routes — chosen as the first such pair, ascending, of
// cities at least 5,000 km apart.
func outsidePair(s *Sim) Pair {
	in := map[[2]int]bool{}
	for _, p := range s.Pairs {
		in[[2]int{p.Src, p.Dst}] = true
	}
	for src := range s.Cities {
		for dst := src + 1; dst < len(s.Cities); dst++ {
			km := geo.GreatCircleKm(s.Cities[src].Position(), s.Cities[dst].Position())
			if !in[[2]int{src, dst}] && km >= 5000 {
				return Pair{Src: src, Dst: dst, GeodesicKm: km}
			}
		}
	}
	panic("every distant city pair is in s.Pairs")
}

// TestGSLChurn: the merge-diff of two instants' GSL lists counts the links
// only one of them has, whatever order the links come in and whatever lasers
// ride along, and diffs nothing across a change of the aircraft set.
func TestGSLChurn(t *testing.T) {
	// net is 3 satellites, 2 cities and the named aircraft (nodes 5, 6, …)
	// joined by links, each a (terminal, satellite) GSL or, with kind ISL, a
	// laser between two satellites.
	type link struct {
		a, b int32
		kind graph.LinkKind
	}
	net := func(air []string, links ...link) *graph.Network {
		n := &graph.Network{NumSat: 3, NumCity: 2, NumAircraft: len(air),
			Name: append([]string{"s0", "s1", "s2", "c0", "c1"}, air...)}
		for _, l := range links {
			n.Links = append(n.Links, graph.Link{A: l.a, B: l.b, Kind: l.kind})
		}
		return n
	}
	gsl := func(term, sat int32) link { return link{term, sat, graph.LinkGSL} }
	isl := func(a, b int32) link { return link{a, b, graph.LinkISL} }
	one, other := []string{"AF1"}, []string{"BA2"}
	for _, c := range []struct {
		name               string
		prev, cur          *graph.Network
		appeared, vanished int
		diffed             bool
	}{
		{"unchanged", net(nil, gsl(3, 0), gsl(4, 1)), net(nil, gsl(3, 0), gsl(4, 1)), 0, 0, true},
		{"one appears, one vanishes", net(nil, gsl(3, 0), gsl(4, 1)), net(nil, gsl(3, 0), gsl(4, 2)), 1, 1, true},
		{"all replaced", net(nil, gsl(3, 0)), net(nil, gsl(3, 1), gsl(3, 2), gsl(4, 0)), 3, 1, true},
		{"to and from none", net(nil), net(nil, gsl(4, 2)), 1, 0, true},
		{"lasers are not GSLs", net(nil, gsl(3, 0), isl(0, 1)), net(nil, gsl(3, 0), isl(1, 2)), 0, 0, true},
		{"link order is not churn", net(nil, gsl(3, 0), gsl(4, 0), gsl(3, 1)), net(nil, gsl(3, 0), gsl(3, 1), gsl(4, 0)), 0, 0, true},
		{"same aircraft: its links diff", net(one, gsl(3, 0), gsl(5, 1)), net(one, gsl(3, 0), gsl(5, 2)), 1, 1, true},
		{"aircraft set grows: not diffed", net(one, gsl(5, 1)), net([]string{"AF1", "BA2"}, gsl(5, 1), gsl(6, 2)), 0, 0, false},
		{"aircraft replaced: not diffed", net(one, gsl(3, 0), gsl(5, 1)), net(other, gsl(3, 0), gsl(5, 1)), 0, 0, false},
	} {
		appeared, vanished, diffed := gslChurn(c.prev, c.cur)
		if appeared != c.appeared || vanished != c.vanished || diffed != c.diffed {
			t.Errorf("%s: +%d/-%d diffed=%v, want +%d/-%d diffed=%v",
				c.name, appeared, vanished, diffed, c.appeared, c.vanished, c.diffed)
		}
	}
}

// TestPathSignatureNamesAircraft: when an earlier aircraft leaves the
// over-water set between two instants, every later aircraft's node index
// shifts down by one. The same route through a later aircraft must keep its
// signature, and a different aircraft that lands on the old index must not.
func TestPathSignatureNamesAircraft(t *testing.T) {
	// 3 satellites, 2 cities, 1 relay, then the named aircraft (nodes 6, …).
	net := func(air ...string) *graph.Network {
		return &graph.Network{NumSat: 3, NumCity: 2, NumRelay: 1, NumAircraft: len(air),
			Name: append([]string{"s0", "s1", "s2", "c0", "c1", "r0"}, air...)}
	}
	path := func(nodes ...int32) graph.Path { return graph.Path{Nodes: nodes} }
	before, after := net("AF1", "BA2"), net("BA2")
	viaBA2Before := path(3, 0, 5, 1, 7, 2, 4) // c0 s0 r0 s1 BA2 s2 c1
	viaBA2After := path(3, 0, 5, 1, 6, 2, 4)
	if pathSignature(before, viaBA2Before) != pathSignature(after, viaBA2After) {
		t.Error("the same route through BA2 reads as a change once AF1 left the set")
	}
	viaAF1Before := path(3, 0, 5, 1, 6, 2, 4)
	if pathSignature(before, viaAF1Before) == pathSignature(after, viaBA2After) {
		t.Error("a route moved from AF1 to BA2, which took AF1's node index, reads as no change")
	}
	if pathSignature(before, viaBA2Before) == pathSignature(before, viaAF1Before) {
		t.Error("routes through two different aircraft share a signature")
	}
}
