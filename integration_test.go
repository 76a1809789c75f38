package leosim

// End-to-end integration test: exercise every experiment the CLI exposes on
// one shared reduced-ish sim, asserting the paper's qualitative directions
// all hold simultaneously. Skipped under -short.

import (
	"context"
	"io"
	"testing"
	"time"

	"leosim/internal/core"
	"leosim/internal/geo"
)

func TestEndToEndAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test in -short mode")
	}
	scale := TinyScale()
	scale.NumCities = 100
	scale.NumPairs = 80
	scale.AircraftDensity = 0.5
	sim, err := NewSim(Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("latency", func(t *testing.T) {
		res, err := RunLatency(context.Background(), sim)
		if err != nil {
			t.Fatal(err)
		}
		med, _ := res.Headline()
		if med < -30 {
			t.Errorf("BP should vary at least roughly as much as hybrid: %v%%", med)
		}
		WriteLatencyReport(io.Discard, res, 5)
	})

	t.Run("throughput", func(t *testing.T) {
		rows, err := RunFig4(context.Background(), sim)
		if err != nil {
			t.Fatal(err)
		}
		var bp1, hy1 float64
		for _, r := range rows {
			if r.K == 1 {
				if r.Mode == BP {
					bp1 = r.AggregateGbps
				} else {
					hy1 = r.AggregateGbps
				}
			}
		}
		if hy1 <= bp1 {
			t.Errorf("hybrid %v must beat BP %v", hy1, bp1)
		}
		WriteFig4Report(io.Discard, rows)
	})

	t.Run("fig5", func(t *testing.T) {
		pts, bp, err := RunFig5(context.Background(), sim, []float64{0.5, 3, 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != 3 || bp <= 0 {
			t.Fatalf("fig5 malformed")
		}
		// Saturation: the 3×→5× step is smaller than the 0.5×→3× step.
		if pts[2].AggregateGbps-pts[1].AggregateGbps > pts[1].AggregateGbps-pts[0].AggregateGbps {
			t.Errorf("no saturation beyond 3x: %+v", pts)
		}
		WriteFig5Report(io.Discard, pts, bp)
	})

	t.Run("disconnected+utilization", func(t *testing.T) {
		d, err := RunDisconnected(context.Background(), sim)
		if err != nil {
			t.Fatal(err)
		}
		if d.Mean <= 0 || d.Mean >= 1 {
			t.Errorf("stranded fraction %v", d.Mean)
		}
		u, err := core.RunUtilization(context.Background(), sim, BP, geo.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		// Idle ≥ disconnected: every disconnected satellite is also idle.
		if u.IdleFrac < d.FractionPerSnapshot[0]-0.01 {
			t.Errorf("idle %v below disconnected %v", u.IdleFrac, d.FractionPerSnapshot[0])
		}
		WriteDisconnectReport(io.Discard, d)
		core.WriteUtilizationReport(io.Discard, u)
	})

	t.Run("weather", func(t *testing.T) {
		res, err := RunWeather(context.Background(), sim)
		if err != nil {
			t.Fatal(err)
		}
		if res.MedianAdvantageDB() < 0 {
			t.Errorf("ISL weather advantage negative")
		}
		cap, err := core.RunWeatherCapacity(context.Background(), sim)
		if err != nil {
			t.Fatal(err)
		}
		bpMed, islMed := cap.MedianRetention()
		if islMed < bpMed {
			t.Errorf("ISL capacity retention below BP")
		}
		WriteWeatherReport(io.Discard, res, 5)
		core.WriteModcodReport(io.Discard, cap)
	})

	t.Run("gso", func(t *testing.T) {
		rows, err := core.RunGSOArc(context.Background(), sim, 40, []float64{0, 40, 80})
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].FOVBlockedFrac <= rows[2].FOVBlockedFrac {
			t.Errorf("GSO FoV blocking not decreasing with latitude")
		}
		core.WriteGSOReport(io.Discard, rows)
	})

	t.Run("te", func(t *testing.T) {
		res, err := core.RunTrafficEngineering(context.Background(), sim, Hybrid, 4, geo.Epoch)
		if err != nil {
			t.Fatal(err)
		}
		if res.TEGbps < 0.8*res.ShortestGbps {
			t.Errorf("TE collapsed: %v vs %v", res.TEGbps, res.ShortestGbps)
		}
		core.WriteTEReport(io.Discard, res)
	})

	t.Run("pathchurn", func(t *testing.T) {
		res, err := core.RunPathChurn(context.Background(), sim)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanChangeFrac(BP) < res.MeanChangeFrac(Hybrid) {
			t.Errorf("BP paths should churn at least as much as hybrid")
		}
		core.WritePathChurnReport(io.Discard, res)
	})

	t.Run("geojson+json", func(t *testing.T) {
		if err := core.WriteSnapshotGeoJSON(context.Background(), io.Discard, sim, 0, geo.Epoch.Add(30*time.Minute)); err != nil {
			t.Fatal(err)
		}
		rows, err := RunFig4(context.Background(), sim)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(io.Discard, "fig4", sim, rows); err != nil {
			t.Fatal(err)
		}
	})
}
