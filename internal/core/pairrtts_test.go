package core

import (
	"context"
	"math"
	"testing"

	"leosim/internal/fault"
	"leosim/internal/graph"
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

			plan, err := fault.ForScenario(fault.SatOutage, 0.2, resilienceSeed(scale.Seed, 0))
			if err != nil {
				t.Fatal(err)
			}
			out, err := plan.RealizeAt(s.Const, len(s.Seg.Terminals), times[0])
			if err != nil {
				t.Fatal(err)
			}
			masked, err := s.BuildNetworkAt(ctx, times[0], Hybrid, out)
			if err != nil {
				t.Fatal(err)
			}
			f, sp := check("hybrid masked by a 20% satellite outage", masked)
			t.Logf("%s masked network: full trees settle %d nodes, the stopped searches %d", scale.Name, f, sp)
		})
	}
}
