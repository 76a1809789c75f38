package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/ground"
	"leosim/internal/telemetry"
)

// An Experiment is one row of the experiment table: what `leosim <Name>`
// computes and prints. Run is the one place its arguments are written; the
// CLI, the goldens, the determinism suite and BenchmarkExperiment all call it.
type Experiment struct {
	Name    string
	Section string // the paper section reproduced or extended, and what is measured
	Group   string // "all" (the paper's figures), "ext" (extensions) or "" (by name only)
	// Run makes the call. A failed call returns a nil result, except that a
	// resumable sweep cut short returns its prefix, marked Partial, too.
	Run  func(ctx context.Context, s *Sim, a Args) (any, error)
	Text func(w io.Writer, res any, a Args) // the text report of Run's result
}

// Args are the experiment settings the command line exposes as flags.
type Args struct {
	Fault                  fault.Scenario // resilience's and topo's failure scenario
	ChurnStep, ChurnWindow time.Duration  // churn's and topo's step and span
	CDFPoints              int            // points per CDF series in text reports (0 = none)
}

// DefaultArgs are the flag defaults of `leosim`.
func DefaultArgs() Args {
	return Args{Fault: fault.SatOutage, ChurnStep: time.Second, ChurnWindow: time.Minute, CDFPoints: 20}
}

// Verbatim is a result printed as is in text and JSON mode alike: the GeoJSON
// export is its own document, and info is one line.
type Verbatim []byte

// Print runs e on s and writes the result to w as leosim prints it: the JSON
// envelope when asJSON (with rec's stage times when rec is non-nil), the text
// report otherwise. A sweep cut short still writes its completed prefix,
// marked partial, and then returns its error.
func (e Experiment) Print(ctx context.Context, w io.Writer, s *Sim, a Args, asJSON bool, rec *telemetry.Recorder) error {
	res, err := e.Run(ctx, s, a)
	if res == nil {
		return err
	}
	var werr error
	switch v, verbatim := res.(Verbatim); {
	case verbatim:
		_, werr = w.Write(v)
	case asJSON:
		werr = WriteJSONStages(w, e.Name, s, res, partial(res), rec)
	default:
		e.Text(w, res, a)
	}
	if werr != nil {
		return werr
	}
	return err
}

// partial reports whether res is the prefix of a sweep cut short. Only the
// three resumable sweeps can be.
func partial(res any) bool {
	switch r := res.(type) {
	case *LatencyResult:
		return r != nil && r.Partial
	case *DisconnectResult:
		return r != nil && r.Partial
	case *ResilienceResult:
		return r != nil && r.Partial
	}
	return false
}

// row types one table row: run's result is what text reports.
func row[T any](name, section, group string, run func(context.Context, *Sim, Args) (T, error), text func(io.Writer, T, Args)) Experiment {
	return Experiment{
		Name: name, Section: section, Group: group,
		Run: func(ctx context.Context, s *Sim, a Args) (any, error) {
			res, err := run(ctx, s, a)
			if err != nil && !partial(res) {
				return nil, err
			}
			return res, err
		},
		Text: func(w io.Writer, res any, a Args) { text(w, res.(T), a) },
	}
}

// call and report adapt a call and a report that read no Args.
func call[T any](f func(context.Context, *Sim) (T, error)) func(context.Context, *Sim, Args) (T, error) {
	return func(ctx context.Context, s *Sim, _ Args) (T, error) { return f(ctx, s) }
}

func report[T any](f func(io.Writer, T)) func(io.Writer, T, Args) {
	return func(w io.Writer, res T, _ Args) { f(w, res) }
}

// Experiments is the table, in the order `leosim all` and `leosim ext` print
// their groups.
var Experiments = []Experiment{
	row("fig2a", "§4 Fig 2a: minimum RTT across pairs, BP vs hybrid", "all", call(RunLatency), writeLatency),
	row("fig3", "§4 Fig 3: the Maceió–Durban BP path through the day", "all",
		func(ctx context.Context, s *Sim, _ Args) (*PathTraceResult, error) {
			return RunPathTrace(ctx, s, "Maceió", "Durban", BP)
		}, report(writePathTrace)),
	row("fig4", "§5 Fig 4: aggregate throughput, {BP, hybrid} × k ∈ {1, 4}", "all", call(RunFig4), report(WriteFig4Report)),
	row("fig5", "§5 Fig 5: throughput vs ISL capacity", "all",
		func(ctx context.Context, s *Sim, _ Args) (fig5Result, error) {
			pts, bp, err := RunFig5(ctx, s, []float64{0.5, 1, 2, 3, 4, 5})
			return fig5Result{bp, pts}, err
		}, report(func(w io.Writer, r fig5Result) { WriteFig5Report(w, r.Points, r.BPBaselineGbps) })),
	row("disconnected", "§5: satellites BP leaves stranded", "all", call(RunDisconnected), report(WriteDisconnectReport)),
	row("fig6", "§6 Fig 6: weather attenuation across pairs", "all", call(RunWeather), writeWeather),
	row("fig7", "§6 Fig 7: the Delhi–Sydney regional attenuation map", "all",
		func(ctx context.Context, s *Sim, _ Args) (*HeatmapResult, error) {
			return RunHeatmap(ctx, s, "Delhi", "Sydney", 2)
		}, report(WriteHeatmapReport)),
	row("fig8", "§6 Fig 8: Delhi–Sydney weather, BP vs ISL", "all",
		func(ctx context.Context, s *Sim, _ Args) (*PairWeather, error) {
			return RunPairWeather(ctx, s, "Delhi", "Sydney")
		}, report(WritePairWeatherReport)),
	row("fig9", "§7 Fig 9: GSO arc avoidance vs latitude", "all",
		func(ctx context.Context, s *Sim, _ Args) ([]GSORow, error) {
			return RunGSOArc(ctx, s, 40, []float64{0, 10, 20, 30, 40, 50, 60, 70, 80})
		}, report(WriteGSOReport)),
	row("fig10", "§8 Fig 10: Brisbane–Tokyo BP transition across shells", "all",
		func(ctx context.Context, s *Sim, _ Args) (*CrossShellResult, error) {
			return RunCrossShell(ctx, s, "Brisbane", "Tokyo")
		}, report(WriteCrossShellReport)),
	row("fig11", "§8 Fig 11: Paris fiber augmentation", "all",
		func(ctx context.Context, s *Sim, _ Args) (*FiberResult, error) {
			nearby := []string{"Rouen", "Orléans", "Reims", "Amiens", "Le Mans"}
			return RunFiberAugmentation(ctx, s, "Paris", nearby, 200, geo.Epoch)
		}, report(WriteFiberReport)),

	row("util", "§5: per-satellite carried load", "ext",
		func(ctx context.Context, s *Sim, _ Args) ([]*UtilizationResult, error) {
			bp, err := RunUtilization(ctx, s, BP, geo.Epoch)
			if err != nil {
				return nil, err
			}
			hy, err := RunUtilization(ctx, s, Hybrid, geo.Epoch)
			return []*UtilizationResult{bp, hy}, err
		}, report(func(w io.Writer, r []*UtilizationResult) { WriteUtilizationReport(w, r...) })),
	row("pathchurn", "§4: how often each pair's path changes", "ext", call(RunPathChurn), report(WritePathChurnReport)),
	row("te", "§5: min-max-utilization routing vs shortest delay", "ext",
		func(ctx context.Context, s *Sim, _ Args) (*TEResult, error) {
			return RunTrafficEngineering(ctx, s, Hybrid, 4, geo.Epoch)
		}, report(WriteTEReport)),
	row("modcod", "§6: capacity retention under an adaptive MODCOD ladder", "ext", call(RunWeatherCapacity), report(WriteModcodReport)),
	row("beams", "§2: throughput vs a per-satellite beam cap", "ext",
		func(ctx context.Context, s *Sim, _ Args) ([]BeamPoint, error) {
			return RunBeamSweep(ctx, s, []int{2, 4, 8, 16, 0}, geo.Epoch)
		}, report(WriteBeamReport)),
	row("gsoimpact", "§7: end-to-end cost of GSO arc avoidance", "ext", call(RunGSOImpact), report(WriteGSOImpactReport)),
	row("resilience", "fault-injection degradation sweep (-fault)", "ext",
		func(ctx context.Context, s *Sim, a Args) (*ResilienceResult, error) {
			return RunResilience(ctx, s, a.Fault, nil)
		}, report(WriteResilienceReport)),
	row("topo", "ISL topology lab: motifs × modes (-motif picks one for the other runs)", "ext", RunTopo, report(WriteTopoReport)),
	row("churn", "seconds-scale GSL and route churn (-churn-step, -churn-window)", "ext", RunChurn, report(WriteChurnReport)),
	row("xchurn", "§8: lifetime of cross-shell ISL pairings", "ext", call(crossShellChurn), report(writeCrossShellChurn)),
	row("passes", "§2: satellite passes over a terminal", "ext", call(passes), report(writePasses)),

	row("fig2b", "§4 Fig 2b: RTT variation across pairs (fig2a's run)", "", call(RunLatency), writeLatency),
	row("ka", "§6: fig6 at Ka band, the gateway band §6 flags as more weather-affected", "",
		func(ctx context.Context, s *Sim, _ Args) (*WeatherResult, error) {
			return RunWeatherBand(ctx, s, KaBand)
		}, writeWeather),
	row("relays", "§3: what coarser relay grids cost BP", "",
		func(ctx context.Context, s *Sim, _ Args) ([]RelayPoint, error) {
			d := s.Scale.RelaySpacingDeg
			return RunRelayDensitySweep(ctx, s, []float64{d, d * 2, d * 4})
		}, report(WriteRelayReport)),
	row("geojson", "one snapshot and a routed pair as GeoJSON", "",
		call(func(_ context.Context, s *Sim) (Verbatim, error) {
			var b bytes.Buffer
			err := WriteSnapshotGeoJSON(&b, s, 0, geo.Epoch)
			return b.Bytes(), err
		}), report(writeVerbatim)),
	row("info", "the sim's one-line summary", "",
		call(func(_ context.Context, s *Sim) (Verbatim, error) { return Verbatim(fmt.Sprintln(s)), nil }),
		report(writeVerbatim)),
}

// fig5Result is Fig 5's sweep beside its bent-pipe baseline.
type fig5Result struct {
	BPBaselineGbps float64     `json:"bpBaselineGbps"`
	Points         []Fig5Point `json:"points"`
}

func writeLatency(w io.Writer, r *LatencyResult, a Args) { WriteLatencyReport(w, r, a.CDFPoints) }

func writeWeather(w io.Writer, r *WeatherResult, a Args) { WriteWeatherReport(w, r, a.CDFPoints) }

func writePathTrace(w io.Writer, r *PathTraceResult) {
	for _, tr := range r.Traces {
		if tr.Reachable {
			fmt.Fprintf(w, "%s rtt=%6.1fms hops=%2d aircraft=%d route=%s\n",
				tr.Time.Format("15:04"), tr.RTTMs, tr.Hops, tr.AircraftHops, tr.Route)
		} else {
			fmt.Fprintf(w, "%s unreachable\n", tr.Time.Format("15:04"))
		}
	}
	fmt.Fprintf(w, "fig3 RTT inflation (max-min): %.1f ms; uses aircraft: %v\n",
		r.RTTInflationMs(), r.UsesAircraftEver())
}

// crossShellChurn quantifies §8's "cross-shell ISLs will not be as
// long-lived" against a polar shell added to the sim's constellation.
func crossShellChurn(_ context.Context, s *Sim) (constellation.ChurnStats, error) {
	multi, err := constellation.New(
		[]constellation.Shell{s.Choice.Shell(), constellation.PolarShell()},
		constellation.WithISLs())
	if err != nil {
		return constellation.ChurnStats{}, err
	}
	return constellation.CrossShellChurn(multi, 0, 1, geo.Epoch, time.Minute, 45)
}

func writeCrossShellChurn(w io.Writer, st constellation.ChurnStats) {
	fmt.Fprintf(w, "xchurn cross-shell pairing lifetime: %v\n", st.MeanLifetime.Round(time.Second))
	fmt.Fprintf(w, "xchurn switches per satellite-hour: %.1f (intra-shell +Grid: 0)\n", st.SwitchesPerSatPerHour)
	fmt.Fprintf(w, "xchurn mean nearest range: %.0f km\n", st.MeanRangeKm)
}

// passesCity is where §2's "each satellite is reachable from a GT for a few
// minutes" is counted.
const passesCity = "London"

func passes(_ context.Context, s *Sim) (constellation.PassStats, error) {
	city, err := ground.CityByName(passesCity)
	if err != nil {
		return constellation.PassStats{}, err
	}
	return constellation.TerminalPassStats(s.Const, city.Position(),
		s.Choice.Shell().MinElevationDeg, geo.Epoch, time.Hour, 20*time.Second)
}

func writePasses(w io.Writer, st constellation.PassStats) {
	fmt.Fprintf(w, "passes over %s in 1h: %d (mean %v, max %v)\n",
		passesCity, st.Passes, st.MeanDuration.Round(time.Second), st.MaxDuration.Round(time.Second))
	fmt.Fprintf(w, "passes mean simultaneously visible satellites: %.1f\n", st.MeanVisible)
}

func writeVerbatim(w io.Writer, v Verbatim) { w.Write(v) }
