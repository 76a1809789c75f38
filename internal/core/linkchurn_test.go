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
// searches find, for every wanted pair, the path ShortestPath finds, node for
// node and bit for bit — with every pair wanted and with every other one, on
// tiny and reduced, under both modes, for the default motif and nearest.
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
				routed := 0
				for _, mode := range []Mode{BP, Hybrid} {
					n := s.NewWalker(mode).At(geo.Epoch.Add(90 * time.Second))
					for _, want := range [][]bool{all, alternate} {
						got, err := s.churnPaths(ctx, n, want)
						if err != nil {
							t.Fatal(err)
						}
						for pi, p := range s.Pairs {
							var ref graph.Path
							if want[pi] {
								ref, _ = n.ShortestPath(n.CityNode(p.Src), n.CityNode(p.Dst))
							}
							if !reflect.DeepEqual(got[pi], ref) {
								t.Fatalf("%s: pair %d (%d→%d): churnPaths %v, ShortestPath %v",
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
			})
		}
	}
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
