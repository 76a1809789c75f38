package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// disconnectJournalStep is one journaled snapshot of the disconnected sweep.
type disconnectJournalStep struct {
	Frac float64 `json:"frac"`
}

// DisconnectResult is the §5 satellite-utilization statistic: the fraction
// of satellites entirely disconnected from the rest of the network under BP
// connectivity, across the day (paper: varies between 25.1% and 31.5% for
// Starlink).
type DisconnectResult struct {
	// FractionPerSnapshot is the disconnected-satellite fraction at each
	// snapshot.
	FractionPerSnapshot []float64
	Min, Max, Mean      float64
	// Partial marks a result cut short by cancellation.
	Partial bool
}

// RunDisconnected measures, per snapshot, how many satellites cannot reach
// the giant (city-containing) component of the BP network — i.e. satellites
// with no ground terminal in view, useless for networking without ISLs.
// Cancellation after at least one snapshot returns the completed prefix
// with Partial set alongside ctx.Err().
func RunDisconnected(ctx context.Context, s *Sim) (res *DisconnectResult, err error) {
	defer safe.RecoverTo(&err)
	times := s.SnapshotTimes()
	if len(times) == 0 {
		return nil, fmt.Errorf("core: no snapshots to simulate (NumSnapshots = %d)",
			s.Scale.NumSnapshots)
	}
	res = &DisconnectResult{Min: math.Inf(1), Max: math.Inf(-1)}
	prog := telemetry.NewProgress(Progress, "disconnected", len(times))
	defer prog.Finish()
	var sum float64
	aggregate := func(frac float64) {
		res.FractionPerSnapshot = append(res.FractionPerSnapshot, frac)
		res.Min = math.Min(res.Min, frac)
		res.Max = math.Max(res.Max, frac)
		sum += frac
		prog.Step(1)
	}
	// Replay snapshots a journaled previous run already completed.
	jour := JournalFrom(ctx)
	if jour != nil {
		for _, raw := range jour.Steps("disconnected") {
			var st disconnectJournalStep
			if jerr := json.Unmarshal(raw, &st); jerr != nil {
				return nil, fmt.Errorf("core: journal disconnected step: %w", jerr)
			}
			aggregate(st.Frac)
			if len(res.FractionPerSnapshot) == len(times) {
				break
			}
		}
		if replayed := len(res.FractionPerSnapshot); replayed > 0 {
			telemetry.EmitEvent(ctx, telemetry.CatJournal, telemetry.SevInfo,
				"journal replay: snapshots restored from previous run",
				telemetry.Str("experiment", "disconnected"),
				telemetry.Int64("snapshots", int64(replayed)))
		}
	}
	for _, t := range times[len(res.FractionPerSnapshot):] {
		if ctx.Err() != nil {
			break
		}
		n := s.NetworkAtCtx(ctx, t, BP)
		frac := disconnectedSatFraction(n)
		if jour != nil {
			if jerr := jour.Step("disconnected", disconnectJournalStep{Frac: frac}); jerr != nil {
				return nil, jerr
			}
		}
		aggregate(frac)
	}
	if len(res.FractionPerSnapshot) == 0 {
		return nil, ctx.Err()
	}
	res.Mean = sum / float64(len(res.FractionPerSnapshot))
	if res.Partial = len(res.FractionPerSnapshot) < len(times); res.Partial {
		return res, ctx.Err()
	}
	return res, nil
}

func disconnectedSatFraction(n *graph.Network) float64 {
	stranded, _ := strandedSats(n)
	return float64(stranded) / float64(n.NumSat)
}

// strandedSats counts the satellites outside n's main component and returns
// the component count alongside. The main component is the one holding the
// most cities; on a tie the lowest component ID wins, and Components numbers
// them in node order, so the answer is a function of n alone.
func strandedSats(n *graph.Network) (stranded, components int) {
	comp, count := n.Components()
	cities := make([]int, count)
	for i := 0; i < n.NumCity; i++ {
		cities[comp[n.CityNode(i)]]++
	}
	main, best := int32(-1), 0
	for c, cnt := range cities {
		if cnt > best {
			main, best = int32(c), cnt
		}
	}
	for i := 0; i < n.NumSat; i++ {
		if comp[i] != main {
			stranded++
		}
	}
	return stranded, count
}
