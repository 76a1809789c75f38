package core

import (
	"reflect"
	"testing"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/topo"
)

// requireSameTopology asserts the walker's network matches a fresh build on
// the identity surface: nodes, positions, names and the full link list (kind,
// endpoints, capacity, delay).
func requireSameTopology(t *testing.T, label string, got, want *graph.Network) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: node count %d, fresh build has %d", label, got.N(), want.N())
	}
	if !reflect.DeepEqual(got.Kind, want.Kind) || !reflect.DeepEqual(got.Name, want.Name) {
		t.Fatalf("%s: node sets differ from fresh build", label)
	}
	if !reflect.DeepEqual(got.Pos, want.Pos) {
		t.Fatalf("%s: node positions differ from fresh build", label)
	}
	if !reflect.DeepEqual(got.Links, want.Links) {
		t.Fatalf("%s: links differ from fresh build (%d vs %d)",
			label, len(got.Links), len(want.Links))
	}
}

// TestWalkerMatchesFreshBuilds drives a walker at seconds-scale steps and
// across a snapshot-scale jump: at every instant its network is the builder's
// At there, joined under Hybrid by the lasers of the anchoring instant.
func TestWalkerMatchesFreshBuilds(t *testing.T) {
	s := getTinySim(t)
	times := []time.Time{
		geo.Epoch,
		geo.Epoch.Add(1 * time.Second),
		geo.Epoch.Add(2 * time.Second),
		geo.Epoch.Add(30 * time.Second),
		geo.Epoch.Add(15*time.Minute + 31*time.Second),
		geo.Epoch.Add(15*time.Minute + 32*time.Second),
	}
	anchor := s.Const.ISLsAt(times[0])
	for _, mode := range []Mode{BP, Hybrid} {
		w := s.NewWalker(mode)
		for _, tm := range times {
			want := s.builder.At(tm)
			if mode == Hybrid {
				want = want.WithISLs(anchor)
			}
			requireSameTopology(t, mode.String()+"@"+tm.Format("15:04:05"), w.At(tm), want)
		}
		if got := w.Stats().FullRebuilds; got != len(times)-1 {
			t.Fatalf("%s: stats count %d rebuilds, want %d", mode, got, len(times)-1)
		}
	}
}

// TestWalkerKeepsAnchorLasers: a hybrid cursor over the epoch-aware nearest
// motif keeps the lasers it placed at its first instant, one second later and
// half an hour later, where the motif places others.
func TestWalkerKeepsAnchorLasers(t *testing.T) {
	s, err := NewSim(Starlink, TinyScale(), WithMotifID(topo.Nearest))
	if err != nil {
		t.Fatal(err)
	}
	anchor, later := geo.Epoch, geo.Epoch.Add(30*time.Minute)
	want := s.Const.ISLsAt(anchor)
	if reflect.DeepEqual(want, s.Const.ISLsAt(later)) {
		t.Fatal("nearest placed the same lasers at the anchor and half an hour later; the test needs them to differ")
	}
	w := s.NewWalker(Hybrid)
	w.At(anchor)
	for _, tm := range []time.Time{anchor.Add(time.Second), later} {
		var got []constellation.ISL
		for _, l := range w.At(tm).Links {
			if l.Kind == graph.LinkISL {
				got = append(got, constellation.ISL{A: int(l.A), B: int(l.B)})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v after the anchor: the cursor carries %d lasers, not the anchor's %d",
				tm.Sub(anchor), len(got), len(want))
		}
	}
}
