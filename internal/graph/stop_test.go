package graph

import (
	"math"
	"sync/atomic"
	"testing"

	"leosim/internal/geo"
)

// lineNet builds a path graph 0-1-2-…-(n-1) with unit-ish delays.
func lineNet(n int) *Network {
	net := &Network{}
	for i := 0; i < n; i++ {
		net.AddNode(NodeCity, geo.Vec3{X: 6371 + float64(i)}, "n")
	}
	for i := 0; i < n-1; i++ {
		net.AddLink(int32(i), int32(i+1), LinkFiber, 1)
	}
	return net
}

// A Stop hook that fires immediately abandons the search before anything
// settles, and Search reports the abandonment.
func TestSearchStopImmediately(t *testing.T) {
	n := lineNet(10)
	st := AcquireSearch()
	defer st.Release()
	done := n.Search(st, SearchSpec{Src: 0, Target: NoTarget, Stop: func() bool { return true }})
	if done {
		t.Fatal("Search with always-true Stop should report incompletion")
	}
}

// A Stop hook that never fires must not change any result relative to a
// plain search — the poll is observation only.
func TestSearchStopNeverFiringIsTransparent(t *testing.T) {
	n := lineNet(64)
	ref := AcquireSearch()
	defer ref.Release()
	if !n.Search(ref, SearchSpec{Src: 0, Target: NoTarget}) {
		t.Fatal("plain search should complete")
	}
	var polls atomic.Int64
	st := AcquireSearch()
	defer st.Release()
	done := n.Search(st, SearchSpec{Src: 0, Target: NoTarget, Stop: func() bool {
		polls.Add(1)
		return false
	}})
	if !done {
		t.Fatal("search with false Stop should complete")
	}
	if polls.Load() == 0 {
		t.Fatal("Stop was never polled")
	}
	for v := int32(0); v < int32(n.N()); v++ {
		if ref.Dist(v) != st.Dist(v) {
			t.Fatalf("node %d: dist %v != %v", v, st.Dist(v), ref.Dist(v))
		}
	}
}

// Stop firing mid-search (after the first poll window) leaves the far end
// unsettled: the kernel really did abandon work, not just report false.
func TestSearchStopMidway(t *testing.T) {
	n := lineNet(stopPollInterval * 3)
	var polls int
	st := AcquireSearch()
	defer st.Release()
	done := n.Search(st, SearchSpec{Src: 0, Target: NoTarget, Stop: func() bool {
		polls++
		return polls > 1 // allow the first window, stop at the second poll
	}})
	if done {
		t.Fatal("search should have been abandoned")
	}
	last := int32(n.N() - 1)
	if !math.IsInf(st.Dist(last), 1) {
		t.Fatalf("far node settled (dist %v) despite mid-search stop", st.Dist(last))
	}
}

// relayStarNet builds sats satellites in a chain (nodes 0…sats-1, NumSat =
// sats) with fan relays between each consecutive pair, every relay linked to
// both: a relay-star per hop, every link 1 ms. A search from satellite 0
// relaxes every relay through, each from its one final label.
func relayStarNet(sats, fan int) *Network {
	n := &Network{}
	for i := 0; i < sats; i++ {
		n.AddNode(NodeSatellite, geo.Vec3{}, "s")
	}
	n.NumSat = sats
	for i := int32(0); i+1 < int32(sats); i++ {
		for j := 0; j < fan; j++ {
			r := n.AddNode(NodeRelay, geo.Vec3{}, "r")
			n.Links = append(n.Links,
				Link{A: i, B: r, Kind: LinkGSL, CapGbps: 1, OneWayMs: 1},
				Link{A: r, B: i + 1, Kind: LinkGSL, CapGbps: 1, OneWayMs: 1})
		}
	}
	n.csrValid.Store(false)
	return n
}

// Stop is polled per expanded node, popped or relaxed through, not per pop:
// on a relay-star network, where one pop in 61 nodes expanded, a Stop that
// fires at the second poll still abandons the search 1,024 expansions in,
// leaving the far satellites unreached; and a Stop that never fires is
// polled exactly as often as when every node queued and popped — once per
// stopPollInterval nodes, with every link relaxed once from each end.
func TestSearchStopPollsRelaysThrough(t *testing.T) {
	const sats, fan = 40, 60
	n := relayStarNet(sats, fan)
	st := AcquireSearch()
	defer st.Release()

	var polls, arcs int
	spec := SearchSpec{Src: 0, Target: NoTarget,
		Stop: func() bool { polls++; return false },
		Cost: func(li int32) float64 { arcs++; return n.Links[li].OneWayMs }}
	if !n.Search(st, spec) {
		t.Fatal("search with false Stop should complete")
	}
	popped := 0
	for v := int32(0); v < int32(n.N()); v++ {
		if st.Settled(v) {
			popped++
		}
		if !st.Reached(v) {
			t.Fatalf("node %d unreached", v)
		}
	}
	if popped != sats {
		t.Fatalf("%d nodes popped, want the %d satellites alone", popped, sats)
	}
	if want := (n.N() + stopPollInterval - 1) / stopPollInterval; polls != want {
		t.Fatalf("Stop polled %d times over %d expanded nodes, want %d", polls, n.N(), want)
	}
	if arcs != 2*len(n.Links) {
		t.Fatalf("%d arcs relaxed, want %d: each link once from each end", arcs, 2*len(n.Links))
	}

	polls = 0
	spec.Stop = func() bool { polls++; return polls > 1 }
	if n.Search(st, spec) {
		t.Fatal("search should have been abandoned at the second poll")
	}
	// 1,024 expansions are satellites 0–15 with their relays, satellite 16
	// and 47 of its relays, which reach satellite 17: none past it.
	for v := int32(18); v < sats; v++ {
		if st.Reached(v) {
			t.Fatalf("satellite %d reached (dist %v) despite the stop", v, st.Dist(v))
		}
	}
}
