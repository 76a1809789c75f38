package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/ground"
	"leosim/internal/telemetry"
	"leosim/internal/topo"
)

// referenceScan is the reference the derived networks are held to: the
// snapshot build as it was before networks were derived — nodes, GSLs, ISLs
// and the fault mask in one pass over one private network. It shares nothing
// with graph.Builder or Outages.Masked: visibility is brute force over every
// (terminal, satellite) pair instead of the spatial index, and a failed link
// is simply never added. The scan runs once; the returned function assembles
// a network from it per (isl, outages).
func referenceScan(s *Sim, o graph.BuildOptions, t time.Time) func(isl bool, out *fault.Outages) *graph.Network {
	satPos := s.Const.PositionsECEF(t)
	var air []geo.LatLon
	var airNames []string
	if s.Fleet != nil {
		for _, a := range s.Fleet.OverWaterAt(t) {
			air = append(air, a.Pos)
			airNames = append(airNames, a.Name)
		}
	}
	numSat := len(satPos)
	type gsl struct{ term, sat int32 }
	var gsls []gsl // terminal-major, satellites ascending
	scan := func(node int32, pos geo.Vec3, ck *ground.GSOChecker) {
		for si, sp := range satPos {
			if geo.Elevation(pos, sp) >= s.Const.ShellOf(si).MinElevationDeg && ck.Allowed(sp) {
				gsls = append(gsls, gsl{node, int32(si)})
			}
		}
	}
	for i, term := range s.Seg.Terminals {
		var ck *ground.GSOChecker
		if o.GSO.SeparationDeg > 0 {
			ck = ground.NewGSOChecker(term.Pos, o.GSO)
		}
		scan(int32(numSat+i), term.ECEF, ck)
	}
	for i, ll := range air {
		scan(int32(numSat+len(s.Seg.Terminals)+i), ll.ToECEF(), nil)
	}
	if lim := o.MaxGSLsPerSatellite; lim > 0 {
		// Each satellite keeps its lim closest terminals (ties: lower node),
		// and links come out satellite-major, terminals ascending.
		nodePos := func(v int32) geo.Vec3 {
			switch i := int(v) - numSat; {
			case i < len(s.Seg.Terminals):
				return s.Seg.Terminals[i].ECEF
			default:
				return air[i-len(s.Seg.Terminals)].ToECEF()
			}
		}
		perSat := map[int32][]int32{}
		for _, g := range gsls {
			perSat[g.sat] = append(perSat[g.sat], g.term)
		}
		gsls = gsls[:0]
		for sat := int32(0); sat < int32(numSat); sat++ {
			terms := perSat[sat]
			sort.Slice(terms, func(i, j int) bool {
				di, dj := nodePos(terms[i]).Distance(satPos[sat]), nodePos(terms[j]).Distance(satPos[sat])
				if di != dj {
					return di < dj
				}
				return terms[i] < terms[j]
			})
			if len(terms) > lim {
				terms = terms[:lim]
			}
			sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
			for _, term := range terms {
				gsls = append(gsls, gsl{term, sat})
			}
		}
	}

	return func(isl bool, out *fault.Outages) *graph.Network {
		n := &graph.Network{NumSat: numSat, NumCity: s.Seg.NumCity, NumRelay: s.Seg.NumRelay, NumAircraft: len(air)}
		for i, p := range satPos {
			sat := s.Const.Sats[i]
			n.AddNode(graph.NodeSatellite, p, fmt.Sprintf("sat-%d/%d.%d", sat.ShellIndex, sat.Plane, sat.Slot))
		}
		for _, term := range s.Seg.Terminals {
			kind := graph.NodeCity
			if term.Kind == ground.KindRelay {
				kind = graph.NodeRelay
			}
			n.AddNode(kind, term.ECEF, term.Name)
		}
		for i, ll := range air {
			n.AddNode(graph.NodeAircraft, ll.ToECEF(), airNames[i])
		}
		if out == nil {
			out = &fault.Outages{}
		}
		gslCap := graph.GSLCapGbps
		if out.GSLCapFactor != 0 {
			gslCap *= out.GSLCapFactor
		}
		for _, g := range gsls {
			if !out.FailedSats[g.sat] && !out.FailedSites[g.term-int32(numSat)] {
				n.AddLink(g.term, g.sat, graph.LinkGSL, gslCap)
			}
		}
		if isl {
			for _, l := range s.Const.ISLsAt(t) {
				a, b := int32(l.A), int32(l.B)
				if !out.FailedSats[a] && !out.FailedSats[b] && !out.ISLFailed(a, b) {
					n.AddLink(a, b, graph.LinkISL, graph.ISLCapGbps)
				}
			}
		}
		return n
	}
}

// networkHash digests what a reader of n can see change if someone wrote it:
// the link list and every node's adjacency, in order.
func networkHash(n *graph.Network) uint64 {
	h := fnv.New64a()
	for _, l := range n.Links {
		fmt.Fprintf(h, "%d %d %d %x %x;", l.A, l.B, l.Kind, math.Float64bits(l.CapGbps), math.Float64bits(l.OneWayMs))
	}
	for v := int32(0); v < int32(n.N()); v++ {
		for _, e := range n.Edges(v) {
			fmt.Fprintf(h, "%d %d,", e.To, e.Link)
		}
	}
	return h.Sum64()
}

// requireNetworksIdentical holds got to want on everything a consumer can
// read: node layout, the link list bit for bit, every node's adjacency in
// order, and full shortest-path trees (distances and predecessor links) —
// which a stale or misplaced arc weight would break.
func requireNetworksIdentical(t *testing.T, label string, got, want *graph.Network) {
	t.Helper()
	requireSameTopology(t, label, got, want)
	if got.NumSat != want.NumSat || got.NumCity != want.NumCity ||
		got.NumRelay != want.NumRelay || got.NumAircraft != want.NumAircraft {
		t.Fatalf("%s: node layout %d/%d/%d/%d, reference %d/%d/%d/%d", label,
			got.NumSat, got.NumCity, got.NumRelay, got.NumAircraft,
			want.NumSat, want.NumCity, want.NumRelay, want.NumAircraft)
	}
	for v := int32(0); v < int32(want.N()); v++ {
		if !reflect.DeepEqual(got.Edges(v), want.Edges(v)) {
			t.Fatalf("%s: adjacency of node %d differs from the reference", label, v)
		}
	}
	for _, src := range []int32{want.CityNode(0), want.CityNode(want.NumCity - 1), want.SatNode(17)} {
		gd, gp := fullTree(got, src)
		wd, wp := fullTree(want, src)
		if !reflect.DeepEqual(gd, wd) || !reflect.DeepEqual(gp, wp) {
			t.Fatalf("%s: shortest-path tree from node %d differs from the reference", label, src)
		}
	}
}

// fullTree runs the kernel's full tree from src and reads every node's
// distance and predecessor link off it.
func fullTree(n *graph.Network, src int32) (dist []float64, prevLink []int32) {
	st := graph.AcquireSearch()
	defer st.Release()
	n.Search(st, graph.SearchSpec{Src: src, Target: graph.NoTarget})
	dist, prevLink = make([]float64, n.N()), make([]int32, n.N())
	for v := range dist {
		dist[v], prevLink[v] = st.Dist(int32(v)), st.PrevLink(int32(v))
	}
	return dist, prevLink
}

// TestDerivedNetworksIdentical: every network the system derives from a
// resident one — hybrid from the base scan, fault-masked from the healthy
// network, the fibre splice from a clone — is byte-identical to the network
// the one-pass reference build produces, across static and epoch-aware
// motifs, with and without a GSO policy and a beam cap; a masked network
// shares its parent's node arrays; and deriving, even concurrently with
// searches on the parent, never writes the parent.
func TestDerivedNetworksIdentical(t *testing.T) {
	ctx := context.Background()
	for _, motif := range []topo.ID{topo.PlusGrid, topo.Ladder, topo.Nearest} {
		for _, gso := range []bool{false, true} {
			for _, beamCap := range []int{0, 3} {
				name := fmt.Sprintf("%s/gso=%v/cap=%d", motif, gso, beamCap)
				t.Run(name, func(t *testing.T) {
					opts := []SimOption{WithMotifID(motif)}
					if gso {
						opts = append(opts, WithGSOAvoidance(ground.StarlinkGSOPolicy()))
					}
					parent, err := NewSim(Starlink, TinyScale(), opts...)
					if err != nil {
						t.Fatal(err)
					}
					// The beam sweep's derivation: a capped sim of its own.
					s, err := parent.derive(withBeamCap(beamCap))
					if err != nil {
						t.Fatal(err)
					}
					b := s.builder
					// Not the epoch: an epoch-aware motif's placement here
					// differs from the one made at construction.
					at := s.SnapshotTimes()[1]
					ref := referenceScan(s, b.Opts, at)
					nTerms := len(s.Seg.Terminals)

					base := b.At(at)
					kind := append([]graph.NodeKind(nil), base.Kind...)
					pos := append([]geo.Vec3(nil), base.Pos...)
					names := append([]string(nil), base.Name...)

					hybrid := b.Hybrid(base, at)
					requireNetworksIdentical(t, "base", base, ref(false, nil))
					requireNetworksIdentical(t, "hybrid from base", hybrid, ref(true, nil))

					for _, sc := range fault.Scenarios() {
						plan, err := fault.ForScenario(sc, 0.15, 7)
						if err != nil {
							t.Fatal(err)
						}
						out, err := plan.RealizeAt(s.Const, nTerms, at)
						if err != nil {
							t.Fatal(err)
						}
						for label, healthy := range map[string]*graph.Network{"bp": base, "hybrid": hybrid} {
							before := networkHash(healthy)
							masked := out.Masked(healthy)
							if masked == healthy {
								t.Fatalf("%s %s: a non-zero plan returned the healthy network itself", sc, label)
							}
							requireNetworksIdentical(t, fmt.Sprintf("%s masked from resident %s", sc, label),
								masked, ref(label == "hybrid", out))
							requireCutIsMask(t, fmt.Sprintf("%s cut of resident %s", sc, label), out, healthy, masked)
							if &masked.Pos[0] != &healthy.Pos[0] || &masked.Kind[0] != &healthy.Kind[0] || &masked.Name[0] != &healthy.Name[0] {
								t.Fatalf("%s %s: the masked network copied its parent's node arrays", sc, label)
							}
							if networkHash(healthy) != before {
								t.Fatalf("%s %s: masking wrote the parent's links or CSR", sc, label)
							}
							if sc == fault.ISLOutage {
								// Lasers are drawn from the placement at this
								// instant (nearest re-places per snapshot), so
								// every failed laser is a link that disappears.
								want := 0
								if label == "hybrid" {
									want = out.NumFailedISLs()
								}
								if got := len(healthy.Links) - len(masked.Links); got != want {
									t.Fatalf("%s %s: %d links disappeared, want the %d failed lasers of %d placed at t",
										sc, label, got, want, len(s.Const.ISLsAt(at)))
								}
							}
						}
					}
					zero, err := fault.Plan{Seed: 7}.RealizeAt(s.Const, nTerms, at)
					if err != nil {
						t.Fatal(err)
					}
					if zero.Masked(hybrid) != hybrid {
						t.Fatal("the zero plan did not return the healthy network itself")
					}

					splice := func(n *graph.Network) *graph.Network {
						n.AddLink(n.CityNode(0), n.CityNode(1), graph.LinkFiber, 100)
						return n
					}
					requireNetworksIdentical(t, "fibre clone", splice(hybrid.Clone()), splice(ref(true, nil)))

					// The same derivations as the sim's callers reach them.
					requireNetworksIdentical(t, "NetworkAt bp", s.NetworkAt(at, BP), ref(false, nil))
					requireNetworksIdentical(t, "NetworkAt hybrid", s.NetworkAt(at, Hybrid), ref(true, nil))
					plan, _ := fault.ForScenario(fault.SatOutage, 0.15, 7)
					out, err := plan.RealizeAt(s.Const, nTerms, at)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.BuildNetworkAt(ctx, at, Hybrid, out)
					if err != nil {
						t.Fatal(err)
					}
					requireNetworksIdentical(t, "BuildNetworkAt masked", got, ref(true, out))

					// Concurrent derivations and searches over one base: under
					// -race any write to the shared node arrays is a report.
					plan, _ = fault.ForScenario(fault.SiteOutage, 0.15, 7)
					out, err = plan.RealizeAt(s.Const, nTerms, at)
					if err != nil {
						t.Fatal(err)
					}
					hybridHash := networkHash(hybrid)
					var wg sync.WaitGroup
					for w := 0; w < 4; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							h := b.Hybrid(base, at)
							out.Masked(h).ShortestPath(h.CityNode(w), h.CityNode(w+4))
							base.ShortestPath(base.CityNode(w), base.CityNode(w+4))
							splice(h.Clone())
							// One parent, masked by some while others read it.
							out.Masked(hybrid).ShortestPath(hybrid.CityNode(w), hybrid.CityNode(w+4))
							hybrid.ShortestPath(hybrid.CityNode(w), hybrid.CityNode(w+4))
						}(w)
					}
					wg.Wait()
					if !reflect.DeepEqual(base.Kind, kind) || !reflect.DeepEqual(base.Pos, pos) ||
						!reflect.DeepEqual(base.Name, names) {
						t.Fatal("a derivation wrote the base's node arrays")
					}
					if networkHash(hybrid) != hybridHash {
						t.Fatal("masking under concurrent readers wrote the parent's links or CSR")
					}
				})
			}
		}
	}

	// Every motif, with the sim's own options: each mask that removes links
	// removes its cut.
	for _, motif := range topo.IDs() {
		t.Run("cut/"+motif.String(), func(t *testing.T) {
			if motif == topo.Demand && testing.Short() {
				t.Skip("demand placement costs seconds per snapshot")
			}
			s, err := NewSim(Starlink, TinyScale(), WithMotifID(motif))
			if err != nil {
				t.Fatal(err)
			}
			at := s.SnapshotTimes()[1]
			for _, mode := range []Mode{BP, Hybrid} {
				healthy := s.NetworkAt(at, mode)
				for _, sc := range []fault.Scenario{fault.SatOutage, fault.PlaneOutage, fault.SiteOutage, fault.ISLOutage} {
					plan, err := fault.ForScenario(sc, 0.15, 7)
					if err != nil {
						t.Fatal(err)
					}
					out, err := plan.RealizeAt(s.Const, len(s.Seg.Terminals), at)
					if err != nil {
						t.Fatal(err)
					}
					requireCutIsMask(t, fmt.Sprintf("%s %s", sc, mode), out, healthy, out.Masked(healthy))
				}
			}
		})
	}
}

// requireCutIsMask holds a fault mask's cut to the network it stands for,
// masked: sorted distinct link ids of healthy, exactly the links a failure
// touches by the reference rule (every non-fibre link of a failed satellite
// or site, every failed laser), as many as the mask removes, and the same
// components when healthy is labelled through the cut.
func requireCutIsMask(t *testing.T, label string, out *fault.Outages, healthy, masked *graph.Network) {
	t.Helper()
	cut := out.Cut(healthy)
	for i := 1; i < len(cut); i++ {
		if cut[i] <= cut[i-1] {
			t.Fatalf("%s: cut not strictly increasing at %d: %d after %d", label, i, cut[i], cut[i-1])
		}
	}
	dead := func(v int32) bool {
		if int(v) < healthy.NumSat {
			return out.FailedSats[v]
		}
		return out.FailedSites[v-int32(healthy.NumSat)]
	}
	for li, l := range healthy.Links {
		failed := l.Kind != graph.LinkFiber && (dead(l.A) || dead(l.B) || l.Kind == graph.LinkISL && out.ISLFailed(l.A, l.B))
		if cut.Has(int32(li)) != failed {
			t.Fatalf("%s: link %d (%s %d-%d): in the cut %v, failed %v", label, li, l.Kind, l.A, l.B, !failed, failed)
		}
	}
	if got, want := len(cut), len(healthy.Links)-len(masked.Links); got != want {
		t.Fatalf("%s: the cut holds %d links, the mask removes %d", label, got, want)
	}
	comp, count := graph.View{N: healthy, Cut: cut}.Components()
	wantComp, wantCount := graph.View{N: masked}.Components()
	if count != wantCount || !reflect.DeepEqual(comp, wantComp) {
		t.Fatalf("%s: labelled through the cut, %d components; the masked network has %d (or other labels)", label, count, wantCount)
	}
}

// graphBuilds returns how many snapshot scans (graph.Builder.At) the
// process-global registry has observed.
func graphBuilds() int64 {
	return telemetry.Enable().Histogram(telemetry.StageGraphBuild.String()).Count()
}

// TestOneScanPerInstant: a day sweep over both modes runs the propagation +
// visibility scan once per snapshot — the hybrid network derives from the
// base the bent-pipe pass just built — and a resilience sweep adds none per
// fault seed beyond its snapshots' own.
func TestOneScanPerInstant(t *testing.T) {
	defer telemetry.Disable()
	ctx := context.Background()
	s, err := NewSim(Starlink, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	before := graphBuilds()
	if _, err := RunLatency(ctx, s); err != nil {
		t.Fatal(err)
	}
	if got, want := graphBuilds()-before, int64(s.Scale.NumSnapshots); got != want {
		t.Errorf("RunLatency over %d snapshots ran %d scans, want %d", want, got, want)
	}

	// Four fractions × two modes × the day's four snapshots, all masked from
	// the eight healthy networks the cache already holds.
	before = graphBuilds()
	if _, err := RunResilience(ctx, s, fault.SatOutage, []float64{0.05, 0.1, 0.2, 0.3}); err != nil {
		t.Fatal(err)
	}
	if got := graphBuilds() - before; got != 0 {
		t.Errorf("RunResilience on a resident day ran %d scans, want 0", got)
	}
}
