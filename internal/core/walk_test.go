package core

import (
	"reflect"
	"testing"
	"time"

	"leosim/internal/geo"
	"leosim/internal/graph"
)

// requireSameTopology asserts the walker's in-place network matches a fresh
// build on the identity surface: nodes, positions, names and the full link
// list (kind, endpoints, capacity, delay).
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

// TestWalkerMatchesFreshBuilds drives a walker at seconds-scale steps (far
// below the scenario's snapshot step) and at snapshot-scale jumps, checking
// every visited instant against an independent fresh build.
func TestWalkerMatchesFreshBuilds(t *testing.T) {
	s := getTinySim(t)
	for _, mode := range []Mode{BP, Hybrid} {
		w := s.NewWalker(mode)
		fresh := func(tm time.Time) *graph.Network {
			n := s.builder.At(tm)
			if mode == Hybrid {
				n = s.builder.Hybrid(n, tm)
			}
			return n
		}
		times := []time.Time{
			geo.Epoch,
			geo.Epoch.Add(1 * time.Second),
			geo.Epoch.Add(2 * time.Second),
			geo.Epoch.Add(30 * time.Second),
			geo.Epoch.Add(graph.MaxAdvanceStep + 31*time.Second), // falls back
			geo.Epoch.Add(graph.MaxAdvanceStep + 32*time.Second),
		}
		for _, tm := range times {
			requireSameTopology(t, mode.String()+"@"+tm.Format("15:04:05"),
				w.At(tm), fresh(tm))
		}
		if d := w.LastDelta(); d == nil {
			t.Fatal("no delta after the final step")
		}
		st := w.Stats()
		if st.Steps != len(times)-1 {
			t.Fatalf("stats: %d steps, want %d", st.Steps, len(times)-1)
		}
		// The jump past MaxAdvanceStep must have fallen back (the tiny
		// scale's aircraft schedule may force additional rebuilds at other
		// steps — that is the advancer's call, identity is what matters).
		if st.FullRebuilds < 1 {
			t.Fatal("stats: the large jump did not register a full rebuild")
		}
	}
}

// TestWalkerLastDelta checks the delta surface experiments consume: nil
// before any step, populated after incremental steps, flagged on fallbacks.
func TestWalkerLastDelta(t *testing.T) {
	s := getTinySim(t)
	w := s.NewWalker(BP)
	if w.LastDelta() != nil {
		t.Fatal("LastDelta non-nil before the first At")
	}
	if st := w.Stats(); st != (graph.AdvanceStats{}) {
		t.Fatalf("zero-value walker has stats %+v", st)
	}
	w.At(geo.Epoch)
	if w.LastDelta() != nil {
		t.Fatal("LastDelta non-nil after the anchoring build")
	}
	w.At(geo.Epoch.Add(time.Second))
	d := w.LastDelta()
	if d == nil || d.FullRebuild {
		t.Fatalf("seconds-scale step: delta %+v, want incremental", d)
	}
	if d.From != geo.Epoch || d.To != geo.Epoch.Add(time.Second) {
		t.Fatalf("delta bounds [%v, %v] don't match the step", d.From, d.To)
	}
	w.At(geo.Epoch) // backwards: must fall back, not corrupt
	d = w.LastDelta()
	if d == nil || !d.FullRebuild || d.Reason != "backwards-step" {
		t.Fatalf("backwards step: delta %+v, want full rebuild", d)
	}
}
