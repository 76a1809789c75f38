package core

import (
	"context"
	"fmt"
	"time"

	"leosim/internal/graph"
	"leosim/internal/telemetry"
)

// Walker is a forward time cursor over one connectivity mode's network, for
// seconds-scale steps (leosim churn, the topo sweep's churn window). The
// first At anchors a graph.Advancer with a full build; every later At applies
// an incremental per-step delta instead of rebuilding, which at such steps is
// an order of magnitude cheaper (see BENCH_snapshot.json). The advanced
// network is byte-identical to a fresh build at the same instant with the
// ISL set the cursor anchored with. Beyond graph.MaxAdvanceStep a step is a
// rebuild, so schedule snapshots come from NetworkAt instead.
//
// The *graph.Network returned by At is owned by the walker and mutated in
// place by the next At call: callers that need a snapshot to outlive the next
// step must Clone it. A Walker is not safe for concurrent use; create one per
// goroutine.
type Walker struct {
	b    *graph.Builder
	isl  bool // a cursor over the hybrid network
	adv  *graph.Advancer
	last *graph.Delta
}

// NewWalker returns a time cursor over mode's network using the sim's
// builder.
func (s *Sim) NewWalker(mode Mode) *Walker {
	return &Walker{b: s.builder, isl: mode == Hybrid}
}

// At positions the cursor at t and returns the network there. The first call
// performs a full build; subsequent calls advance incrementally when t is
// within graph.MaxAdvanceStep ahead of the cursor and fall back to a full
// rebuild otherwise (recorded in the step's Delta).
func (w *Walker) At(t time.Time) *graph.Network {
	if w.adv == nil {
		w.adv = w.b.NewAdvancer(t, w.isl)
		w.last = nil
		return w.adv.Net()
	}
	w.last = w.adv.Advance(t)
	return w.adv.Net()
}

// LastDelta returns the edge delta of the most recent At, or nil if the
// cursor has taken no step yet (the anchoring build has no delta). The delta
// is valid until the next At call.
func (w *Walker) LastDelta() *graph.Delta { return w.last }

// Stats returns the cursor's accumulated advance statistics.
func (w *Walker) Stats() graph.AdvanceStats {
	if w.adv == nil {
		return graph.AdvanceStats{}
	}
	return w.adv.Stats()
}

// traceSnapshot opens one per-snapshot trace envelope when a trace capture
// is running: it returns a context carrying a fresh trace ID — spans
// recorded under it join the snapshot's own track in the exported trace —
// and a close function. With no capture running it returns ctx unchanged
// and a no-op, so untraced sweeps pay one atomic load per snapshot.
func traceSnapshot(ctx context.Context, index int) (context.Context, func()) {
	if !telemetry.TracingEnabled() {
		return ctx, func() {}
	}
	id := telemetry.NewTraceID()
	name := fmt.Sprintf("snapshot[%d]", index)
	start := time.Now()
	return telemetry.WithTraceID(ctx, id), func() {
		telemetry.AddTraceSpan(name, id, start, time.Since(start))
	}
}
