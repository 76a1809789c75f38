package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"leosim/internal/fault"
	"leosim/internal/graph"
	"leosim/internal/oracle"
)

// plainDisjointPaths peels k edge-disjoint paths src → dst the way
// KDisjointPaths does, but on the plain Dijkstra loop: an identity Cost hook
// keeps every search off the goal-directed path without changing a weight.
func plainDisjointPaths(n *graph.Network, src, dst int32, k int) []graph.Path {
	st := graph.AcquireSearch()
	defer st.Release()
	identity := func(li int32) float64 { return n.Links[li].OneWayMs }
	var out []graph.Path
	for len(out) < k {
		n.Search(st, graph.SearchSpec{Src: src, Target: dst, Cost: identity})
		p, ok := st.Path(dst)
		if !ok {
			break
		}
		out = append(out, p)
		for _, li := range p.Links {
			st.BanLink(li)
		}
	}
	return out
}

// TestGoalDirectedMatchesDijkstra holds the goal-directed kernel to plain
// Dijkstra on reduced snapshots — seeds 1, 5 and 17, snapshots 0 and 5,
// bent-pipe, hybrid, and the hybrid under a 20 % satellite outage: every
// pair's k = 4 disjoint-path set from KDisjointPathsTo (its destination's
// tree directs every search) is the plain peeling's, and every city pair searched alone
// under random link bans — on the outage's view, the healthy hybrid with the
// cut banned too — settles its target at the plain search's distance (float
// bits), predecessor link and path, both under the free-space bound and
// directed by the unbanned network's tree rooted at the target (an uncut
// oracle's row, as a served what-if passes it).
func TestGoalDirectedMatchesDijkstra(t *testing.T) {
	if testing.Short() {
		t.Skip("three reduced sims' worth of searches")
	}
	ctx := context.Background()
	for _, seed := range []int64{1, 5, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			t.Parallel()
			goalDirectedMatchesDijkstra(ctx, t, seed)
		})
	}
}

// goalDirectedMatchesDijkstra runs TestGoalDirectedMatchesDijkstra for one
// seed.
func goalDirectedMatchesDijkstra(ctx context.Context, t *testing.T, seed int64) {
	scale := ReducedScale()
	scale.Seed = seed
	s, err := NewSim(Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	times := s.SnapshotTimes()
	for _, snap := range []int{0, 5} {
		at := times[snap]
		hybrid := s.NetworkAt(at, Hybrid)
		plan, err := fault.ForScenario(fault.SatOutage, 0.2, resilienceSeed(seed, 0))
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.RealizeAt(s.Const, len(s.Seg.Terminals), at)
		if err != nil {
			t.Fatal(err)
		}
		masked, err := s.BuildNetworkAt(ctx, at, Hybrid, out)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			label string
			n     *graph.Network // the network the disjoint sets are peeled on
			view  graph.View     // the view the single searches run on
		}{
			{"bp", s.NetworkAt(at, BP), graph.View{N: s.NetworkAt(at, BP)}},
			{"hybrid", hybrid, graph.View{N: hybrid}},
			{"hybrid, 20% satellite outage", masked, graph.View{N: hybrid, Cut: out.Cut(hybrid)}},
		} {
			tag := fmt.Sprintf("seed %d snapshot %d %s", seed, snap, c.label)
			n := c.n
			ov := graph.NewOverlay(n, 4*len(s.Pairs))
			for dstCity, pis := range groupPairs(s.Pairs, pairDst) {
				dst := n.CityNode(dstCity)
				var srcs []int32
				for _, pi := range pis {
					srcs = append(srcs, n.CityNode(s.Pairs[pi].Src))
				}
				for i, set := range ov.KDisjointPathsTo(dst, srcs, 4) {
					if want := plainDisjointPaths(n, srcs[i], dst, 4); !reflect.DeepEqual(set, want) {
						t.Fatalf("%s: %d→%d: k = 4 sets %v, plain peeling %v", tag, srcs[i], dst, set, want)
					}
				}
			}

			v := c.view
			healthy, err := oracle.Build(ctx, v.N, nil)
			if err != nil {
				t.Fatal(err)
			}
			st, byTree, ref := graph.AcquireSearch(), graph.AcquireSearch(), graph.AcquireSearch()
			identity := func(li int32) float64 { return v.N.Links[li].OneWayMs }
			rng := rand.New(rand.NewSource(seed*100 + int64(snap)))
			for _, p := range s.Pairs {
				src, dst := v.N.CityNode(p.Src), v.N.CityNode(p.Dst)
				for _, x := range []*graph.SearchState{st, byTree, ref} {
					x.ClearBans()
				}
				for li := range v.N.Links {
					if rng.Float64() < 0.02 {
						for _, x := range []*graph.SearchState{st, byTree, ref} {
							x.BanLink(int32(li))
						}
					}
				}
				v.Search(ref, graph.SearchSpec{Src: src, Target: dst, Cost: identity})
				want, wantOK := ref.Path(dst)
				for _, x := range []struct {
					how  string
					st   *graph.SearchState
					tree []int32
				}{{"free-space", st, nil}, {"healthy tree", byTree, healthy.Tree(p.Dst)}} {
					v.Search(x.st, graph.SearchSpec{Src: src, Target: dst, Tree: x.tree})
					got, gotOK := x.st.Path(dst)
					if math.Float64bits(x.st.Dist(dst)) != math.Float64bits(ref.Dist(dst)) ||
						x.st.PrevLink(dst) != ref.PrevLink(dst) || gotOK != wantOK || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %d→%d under bans, directed by the %s: %v (%v ms), plain %v (%v ms)",
							tag, src, dst, x.how, got, x.st.Dist(dst), want, ref.Dist(dst))
					}
				}
			}
			st.Release()
			byTree.Release()
			ref.Release()
		}
	}
}
