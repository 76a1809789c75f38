package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"leosim/internal/telemetry"
)

// TestTraceNamesEveryStage runs every row of the experiment table at tiny
// (fig8 at the Australia sizing) under a trace capture and a run Recorder,
// as `leosim -tracefile` does, and holds the trace to the run's stage_times:
// every stage the Recorder breaks the run down into is also the name of a
// span in the trace, so a stage and its spans are one measurement.
func TestTraceNamesEveryStage(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	staged := 0
	for _, e := range Experiments {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			if e.Name == "topo" && testing.Short() {
				t.Skip("every motif × both modes in -short mode")
			}
			scale := TinyScale()
			if e.Name == "fig8" {
				scale = australiaScale()
			}
			s, err := NewSim(Starlink, scale)
			if err != nil {
				t.Fatal(err)
			}
			rec := telemetry.NewRecorder()
			if _, err := telemetry.StartTracing(0); err != nil {
				t.Fatal(err)
			}
			_, err = e.Run(telemetry.WithRecorder(context.Background(), rec), s, DefaultArgs())
			tr := telemetry.StopTracing()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tr.WriteChrome(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Ph   string `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			spans := map[string]bool{}
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" {
					spans[ev.Name] = true
				}
			}
			var missing []string
			for stage := range rec.Breakdown() {
				if !spans[stage] {
					missing = append(missing, stage)
				}
			}
			sort.Strings(missing)
			if len(missing) > 0 {
				t.Fatalf("stage_times names %v, which the trace has no span of (trace spans: %v)", missing, spans)
			}
			if len(rec.Breakdown()) > 0 {
				staged++
			}
		})
	}
	if staged == 0 {
		t.Fatal("no experiment recorded a stage: the comparison is vacuous")
	}
}
