package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"leosim/internal/fault"
	"leosim/internal/graph"
	"leosim/internal/telemetry"
)

// TestPairRTTsMatchesFullTrees holds pairRTTs — one search per source city,
// stopped once the source's last destination city is settled — to a full
// shortest-path tree per source, bit for bit, on every snapshot × mode of the
// tiny and reduced days and on one fault-masked network of each. It logs how
// many nodes a day's full trees settle against the stopped searches: the work
// the stop saves, as a count. On the snapshots resilience evaluates, under
// both modes and 5 % and 20 % satellite outages, pairRTTs over the view of
// the healthy network with the outages' cut equals pairRTTs over the
// materialized mask, bit for bit.
func TestPairRTTsMatchesFullTrees(t *testing.T) {
	ctx := context.Background()
	for _, scale := range []Scale{TinyScale(), ReducedScale()} {
		t.Run(scale.Name, func(t *testing.T) {
			if scale.Name != "tiny" && testing.Short() {
				t.Skip("a reduced day is seconds of trees")
			}
			s, err := NewSim(Starlink, scale)
			if err != nil {
				t.Fatal(err)
			}
			st := graph.AcquireSearch()
			defer st.Release()
			settled := func(n *graph.Network) (count int) {
				for v := int32(0); v < int32(n.N()); v++ {
					if st.Settled(v) {
						count++
					}
				}
				return count
			}
			// check compares pairRTTs on n with the full trees and returns the
			// nodes both settle, summed over the sources.
			check := func(label string, n *graph.Network) (full, stopped int) {
				got, err := pairRTTs(ctx, graph.View{N: n}, s.Pairs, nil)
				if err != nil {
					t.Fatal(err)
				}
				for srcCity, pis := range groupPairs(s.Pairs, pairSrc) {
					src := n.CityNode(srcCity)
					var dsts []int32
					for _, pi := range pis {
						dsts = append(dsts, n.CityNode(s.Pairs[pi].Dst))
					}
					n.Search(st, graph.SearchSpec{Src: src, Target: graph.NoTarget, Targets: dsts})
					stopped += settled(n)
					n.Search(st, graph.SearchSpec{Src: src, Target: graph.NoTarget})
					full += settled(n)
					for i, pi := range pis {
						if want := 2 * st.Dist(dsts[i]); math.Float64bits(got[pi]) != math.Float64bits(want) {
							t.Fatalf("%s: pair %d (%d→%d): pairRTTs %v, full tree %v", label, pi, srcCity, s.Pairs[pi].Dst, got[pi], want)
						}
					}
				}
				return full, stopped
			}

			times := s.SnapshotTimes()
			var full, stopped int
			for _, at := range times {
				for _, m := range []Mode{BP, Hybrid} {
					f, sp := check(m.String()+" snapshot "+at.Format("15:04"), s.NetworkAt(at, m))
					full, stopped = full+f, stopped+sp
				}
			}
			t.Logf("%s day (%d snapshots × 2 modes, %d sources): full trees settle %d nodes, the stopped searches %d (%.3f)",
				scale.Name, len(times), len(groupPairs(s.Pairs, pairSrc)), full, stopped, float64(stopped)/float64(full))

			f, sp := check("hybrid masked by a 20% satellite outage", satOutageHybrid(t, s))
			t.Logf("%s masked network: full trees settle %d nodes, the stopped searches %d", scale.Name, f, sp)

			cut := 0
			for i, frac := range []float64{0.05, 0.2} {
				plan, err := fault.ForScenario(fault.SatOutage, frac, resilienceSeed(s.Scale.Seed, i))
				if err != nil {
					t.Fatal(err)
				}
				for _, at := range times[:min(len(times), resilienceMaxSnapshots)] {
					out, err := plan.RealizeAt(s.Const, len(s.Seg.Terminals), at)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range []Mode{BP, Hybrid} {
						healthy := s.NetworkAt(at, m)
						view := graph.View{N: healthy, Cut: out.Cut(healthy)}
						got, err := pairRTTs(ctx, view, s.Pairs, nil)
						if err != nil {
							t.Fatal(err)
						}
						want, err := pairRTTs(ctx, graph.View{N: out.Masked(healthy)}, s.Pairs, nil)
						if err != nil {
							t.Fatal(err)
						}
						for pi := range s.Pairs {
							if math.Float64bits(got[pi]) != math.Float64bits(want[pi]) {
								t.Fatalf("%s %.0f%% outage at %s: pair %d: view %v, materialized mask %v",
									m, frac*100, at.Format("15:04"), pi, got[pi], want[pi])
							}
						}
						cut += len(view.Cut)
					}
				}
			}
			if cut == 0 {
				t.Fatal("no outage cut a link: the view arm is vacuous")
			}
		})
	}
}

// satOutageHybrid is the hybrid network of s's first snapshot under the 20 %
// satellite outage resilience draws first (seed 0 of the sweep).
func satOutageHybrid(t *testing.T, s *Sim) *graph.Network {
	t.Helper()
	at := s.SnapshotTimes()[0]
	plan, err := fault.ForScenario(fault.SatOutage, 0.2, resilienceSeed(s.Scale.Seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.RealizeAt(s.Const, len(s.Seg.Terminals), at)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := s.BuildNetworkAt(context.Background(), at, Hybrid, out)
	if err != nil {
		t.Fatal(err)
	}
	return masked
}

// TestPairPathsMatchPerPair holds computePairPaths — one KDisjointPathsTo
// per destination city — to one KDisjointPaths call per pair, for k = 1 and 4,
// on both modes of the first snapshot of the tiny and reduced days and on the
// hybrid network under a 20 % satellite outage; and RunFig4, which solves
// k = 1 over the first paths of its k = 4 sets, to RunThroughput row for row.
// It then counts the kernel searches of one reduced RunFig4 (seed 1): per
// mode one ball per destination plus four directed searches per pair, where
// one listed search per source plus three free-space peels per pair took
// 1,720. It also counts the nodes those searches settle — queue and pop; a
// ground node relaxed through never queues — replaying each mode's round
// destination by destination (replayRound): the balls add searches, and the
// searches they direct settle far fewer nodes. A ball stops once its last
// source settles. The round runs on the relay overlay, where no relay or
// aircraft is ever queued: a ball-directed peel on the CSR queued every
// ground node it reached, so the round settled 362,118 nodes there (balls
// 146,883, peels 215,235) and settles 240,961 on the overlay (balls 146,883,
// peels 94,078 — satellites and the cities they reach).
func TestPairPathsMatchPerPair(t *testing.T) {
	ctx := context.Background()
	for _, scale := range []Scale{TinyScale(), ReducedScale()} {
		t.Run(scale.Name, func(t *testing.T) {
			if scale.Name != "tiny" && testing.Short() {
				t.Skip("a reduced Fig 4 is seconds of searches")
			}
			s, err := NewSim(Starlink, scale)
			if err != nil {
				t.Fatal(err)
			}
			at := s.SnapshotTimes()[0]
			for _, c := range []struct {
				label string
				n     *graph.Network
			}{{"bp", s.NetworkAt(at, BP)}, {"hybrid", s.NetworkAt(at, Hybrid)}, {"hybrid masked by a 20% satellite outage", satOutageHybrid(t, s)}} {
				for _, k := range []int{1, 4} {
					got, err := computePairPaths(ctx, s, c.n, k)
					if err != nil {
						t.Fatal(err)
					}
					for pi, p := range s.Pairs {
						if want := c.n.KDisjointPaths(c.n.CityNode(p.Src), c.n.CityNode(p.Dst), k); !reflect.DeepEqual(got[pi], want) {
							t.Fatalf("%s, k=%d: pair %d (%d→%d): %d paths %v, one pair at a time %d paths %v",
								c.label, k, pi, p.Src, p.Dst, len(got[pi]), got[pi], len(want), want)
						}
					}
				}
			}

			rows, err := RunFig4(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 4 {
				t.Fatalf("RunFig4 gave %d rows, want 4", len(rows))
			}
			for _, row := range rows {
				r, err := RunThroughput(ctx, s, row.Mode, row.K, at)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(row.AggregateGbps) != math.Float64bits(r.AggregateGbps) {
					t.Fatalf("%s k=%d: RunFig4 %v Gbps, RunThroughput %v", row.Mode, row.K, row.AggregateGbps, r.AggregateGbps)
				}
			}
		})
	}

	t.Run("searches per reduced round", func(t *testing.T) {
		if testing.Short() {
			t.Skip("a reduced Fig 4 is seconds of searches")
		}
		defer telemetry.Disable()
		s, err := NewSim(Starlink, ReducedScale())
		if err != nil {
			t.Fatal(err)
		}
		searches := func() int64 { return telemetry.Enable().Histogram(telemetry.StageSearch.String()).Count() }
		before := searches()
		if _, err := RunFig4(ctx, s); err != nil {
			t.Fatal(err)
		}
		got := searches() - before
		t.Logf("reduced seed %d: %d pairs to %d destinations, %d kernel searches per RunFig4", s.Scale.Seed, len(s.Pairs), len(groupPairs(s.Pairs, pairDst)), got)
		if got != 2208 {
			t.Fatalf("RunFig4 ran %d kernel searches, want 2,208", got)
		}

		at := s.SnapshotTimes()[0]
		var settled, balls, listed int
		for _, mode := range []Mode{BP, Hybrid} {
			n := s.NetworkAt(at, mode)
			want, err := computePairPaths(ctx, s, n, 4)
			if err != nil {
				t.Fatal(err)
			}
			paths, ball, directed, free := replayRound(n, s.Pairs)
			if !reflect.DeepEqual(paths, want) {
				t.Fatalf("%s: the replayed round's paths differ from computePairPaths'", mode)
			}
			t.Logf("%s: the balls settle %d nodes and the searches they direct %d; one listed search per source plus free-space peels settled %d", mode, ball, directed, free)
			settled += ball + directed
			balls += ball
			listed += free
		}
		t.Logf("RunFig4 settles %d nodes (%d of them in balls), where the listed searches and free-space peels settled %d", settled, balls, listed)
		if settled != 240961 {
			t.Fatalf("RunFig4 settled (queued and popped) %d nodes, want 240,961", settled)
		}
	})
}

// replayRound re-runs on n the searches computePairPaths makes for pairs at
// k = 4 — per destination a ball, then each source's peels directed by it —
// and returns the paths and the nodes the balls and the directed searches
// settle. free is what an earlier scheme settles: per source one search
// listing its destinations, then each pair's banned peels under the
// free-space bound.
func replayRound(n *graph.Network, pairs []Pair) (paths [][]graph.Path, ball, directed, free int) {
	st := graph.AcquireSearch()
	defer st.Release()
	settled := func() (c int) {
		for v := int32(0); v < int32(n.N()); v++ {
			if st.Settled(v) {
				c++
			}
		}
		return c
	}
	paths = make([][]graph.Path, len(pairs))
	ov := graph.NewOverlay(n, 4*len(pairs))
	for dstCity, pis := range groupPairs(pairs, pairDst) {
		srcs := make([]int32, len(pis))
		for i, pi := range pis {
			srcs[i] = n.CityNode(pairs[pi].Src)
		}
		sets, b, d := ov.KDisjointPathsToSettled(n.CityNode(dstCity), srcs, 4)
		for i, pi := range pis {
			paths[pi] = sets[i]
		}
		ball += b
		directed += d
	}
	// peel extends set to k = 4 paths src → dst, banning set's links and
	// searching under the free-space bound, and adds the nodes each search
	// settles to *count.
	peel := func(src, dst int32, set []graph.Path, count *int) {
		st.ClearBans()
		for _, p := range set {
			for _, li := range p.Links {
				st.BanLink(li)
			}
		}
		for len(set) < 4 {
			n.Search(st, graph.SearchSpec{Src: src, Target: dst})
			*count += settled()
			p, ok := st.Path(dst)
			if !ok {
				break
			}
			set = append(set, p)
			for _, li := range p.Links {
				st.BanLink(li)
			}
		}
	}
	for srcCity, pis := range groupPairs(pairs, pairSrc) {
		src := n.CityNode(srcCity)
		var dsts []int32
		for _, pi := range pis {
			dsts = append(dsts, n.CityNode(pairs[pi].Dst))
		}
		st.ClearBans()
		n.Search(st, graph.SearchSpec{Src: src, Target: graph.NoTarget, Targets: dsts})
		free += settled()
		firsts := make([]graph.Path, len(dsts))
		reached := make([]bool, len(dsts))
		for i, dst := range dsts {
			firsts[i], reached[i] = st.Path(dst)
		}
		for i, dst := range dsts {
			if reached[i] {
				peel(src, dst, firsts[i:i+1], &free)
			}
		}
	}
	return paths, ball, directed, free
}
