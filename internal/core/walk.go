package core

import (
	"context"
	"fmt"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/graph"
	"leosim/internal/telemetry"
)

// Walker is a forward time cursor over one connectivity mode's network, for
// seconds-scale steps (leosim churn, the topo sweep's churn window): every At
// is a fresh build of its instant. A hybrid cursor joins each build with the
// lasers placed at its first instant, not at the step's: re-pointing lasers
// is a snapshot-scale operation, and an epoch-aware placement would cost
// seconds per step. Schedule snapshots come from NetworkAt instead. A Walker
// is not safe for concurrent use; create one per goroutine.
type Walker struct {
	b      *graph.Builder
	hybrid bool
	isls   []constellation.ISL // the anchor's lasers
	steps  int
}

// NewWalker returns a time cursor over mode's network using the sim's
// builder.
func (s *Sim) NewWalker(mode Mode) *Walker {
	return &Walker{b: s.builder, hybrid: mode == Hybrid}
}

// At builds the network at t; the first call anchors a hybrid cursor's lasers.
func (w *Walker) At(t time.Time) *graph.Network {
	n := w.b.At(t)
	if w.hybrid {
		if w.steps == 0 {
			w.isls = w.b.Const.ISLsAt(t)
		}
		n = n.WithISLs(w.isls)
	}
	w.steps++
	return n
}

// WalkerStats counts a cursor's rebuilds. Only bench's walker rows read it.
type WalkerStats struct {
	// FullRebuilds is every step after the anchoring one.
	FullRebuilds int
}

// Stats returns the cursor's rebuild count.
func (w *Walker) Stats() WalkerStats {
	return WalkerStats{FullRebuilds: max(w.steps-1, 0)}
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
