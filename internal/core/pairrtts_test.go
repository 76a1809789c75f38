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
// the stop saves, as a count.
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
				got, err := s.pairRTTs(ctx, n)
				if err != nil {
					t.Fatal(err)
				}
				for _, grp := range s.pairGroups {
					src := n.CityNode(grp.src)
					var dsts []int32
					for _, pi := range grp.pairs {
						dsts = append(dsts, n.CityNode(s.Pairs[pi].Dst))
					}
					n.Search(st, graph.SearchSpec{Src: src, Target: graph.NoTarget, Targets: dsts})
					stopped += settled(n)
					n.Search(st, graph.SearchSpec{Src: src, Target: graph.NoTarget})
					full += settled(n)
					for i, pi := range grp.pairs {
						if want := 2 * st.Dist(dsts[i]); math.Float64bits(got[pi]) != math.Float64bits(want) {
							t.Fatalf("%s: pair %d (%d→%d): pairRTTs %v, full tree %v", label, pi, grp.src, s.Pairs[pi].Dst, got[pi], want)
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
				scale.Name, len(times), len(s.pairGroups), full, stopped, float64(stopped)/float64(full))

			f, sp := check("hybrid masked by a 20% satellite outage", satOutageHybrid(t, s))
			t.Logf("%s masked network: full trees settle %d nodes, the stopped searches %d", scale.Name, f, sp)
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

// TestPairPathsMatchPerPair holds computePairPaths — one KDisjointPathsFrom
// per source city — to one KDisjointPaths call per pair, for k = 1 and 4, on
// both modes of the first snapshot of the tiny and reduced days and on the
// hybrid network under a 20 % satellite outage; and RunFig4, which solves
// k = 1 over the first paths of its k = 4 sets, to RunThroughput row for row.
// It then counts the kernel searches of one reduced RunFig4 (seed 1): per
// mode one listed search per source plus three banned ones per pair, where
// searching each pair alone, once per k, took 2,500.
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
		searches := func() int64 { return telemetry.Enable().StageHistogram(telemetry.StageSearch).Count() }
		before := searches()
		if _, err := RunFig4(ctx, s); err != nil {
			t.Fatal(err)
		}
		got := searches() - before
		t.Logf("reduced seed %d: %d pairs from %d sources, %d kernel searches per RunFig4", s.Scale.Seed, len(s.Pairs), len(s.pairGroups), got)
		if got != 1720 {
			t.Fatalf("RunFig4 ran %d kernel searches, want 1,720", got)
		}
	})
}
