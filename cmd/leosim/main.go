// Command leosim runs the paper's experiments from the command line, one
// subcommand per table/figure:
//
//	leosim fig2a|fig2b      latency and its variability (§4)
//	leosim fig3             Maceió–Durban path trace (§4)
//	leosim fig4             aggregate throughput matrix (§5)
//	leosim fig5             ISL capacity sweep (§5)
//	leosim disconnected     BP's stranded satellites (§5)
//	leosim fig6             weather attenuation across pairs (§6)
//	leosim fig8             Delhi–Sydney weather comparison (§6)
//	leosim fig9             GSO arc avoidance (§7)
//	leosim fig10            cross-shell BP augmentation (§8)
//	leosim fig11            Paris fiber augmentation (§8)
//	leosim resilience       fault-injection degradation sweep (-fault scenario)
//	leosim topo             ISL topology-lab sweep: motifs × modes (-motif picks one for other runs)
//	leosim all              everything above
//	leosim serve            HTTP query service over one sim (see -h for flags)
//	leosim check            invariant-validation sweep, JSON report, exit 1 on violations
//
// Scale is selected with -scale tiny|reduced|large|full; "full" reproduces the
// paper's sizing (1,000 cities, 5,000 pairs, 0.5° relay grid, 96 snapshots)
// and needs minutes to hours of CPU depending on the experiment.
// `leosim -version` prints the build identity (also served from /healthz).
//
// Ctrl-C (or SIGTERM) cancels the run cooperatively: experiments stop within
// about one snapshot's work, and the ones that aggregate across snapshots
// flush the completed prefix — with -json, as a valid envelope marked
// "partial": true — before the process exits.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"syscall"
	"time"

	"leosim"
	"leosim/internal/atomicfile"
	"leosim/internal/constellation"
	"leosim/internal/ground"
	"leosim/internal/version"
)

// stdout is where experiment results go; a variable so tests can capture
// the exact byte stream a run produces.
var stdout io.Writer = os.Stdout

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGQUIT dumps the flight recorder to stderr and keeps running — the
	// "what has this stuck process been doing" probe for batch sweeps and
	// serve alike. (This replaces the Go runtime's kill-with-stacks default;
	// use SIGABRT for goroutine dumps.)
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			leosim.DumpTelemetryEvents(os.Stderr)
		}
	}()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "leosim:", err)
		os.Exit(1)
	}
}

// scaleByName resolves -scale values; serve shares it with the experiments.
func scaleByName(name string) (leosim.Scale, error) {
	switch name {
	case "tiny":
		return leosim.TinyScale(), nil
	case "reduced":
		return leosim.ReducedScale(), nil
	case "large":
		return leosim.LargeScale(), nil
	case "full":
		return leosim.FullScale(), nil
	default:
		return leosim.Scale{}, fmt.Errorf("unknown scale %q (want tiny|reduced|large|full)", name)
	}
}

// constellationByName resolves -constellation values.
func constellationByName(name string) (leosim.ConstellationChoice, error) {
	switch name {
	case "starlink":
		return leosim.Starlink, nil
	case "kuiper":
		return leosim.Kuiper, nil
	default:
		return 0, fmt.Errorf("unknown constellation %q (want starlink|kuiper)", name)
	}
}

func run(ctx context.Context, args []string) error {
	// serve is a subcommand with its own flag set (server knobs differ from
	// experiment knobs), dispatched before experiment flag parsing.
	if len(args) > 0 && args[0] == "serve" {
		return runServe(ctx, args[1:])
	}
	// check likewise dispatches to its own flag set; it validates invariants
	// rather than running an experiment.
	if len(args) > 0 && args[0] == "check" {
		return runCheck(ctx, args[1:])
	}

	fs := flag.NewFlagSet("leosim", flag.ContinueOnError)
	showVersion := fs.Bool("version", false, "print the build identity and exit")
	scaleName := fs.String("scale", "reduced", "experiment scale: tiny|reduced|large|full")
	constName := fs.String("constellation", "starlink", "constellation: starlink|kuiper")
	cdfPoints := fs.Int("cdf-points", 20, "points per printed CDF series (0 = none)")
	jsonOut := fs.Bool("json", false, "emit results as JSON envelopes instead of text")
	verbose := fs.Bool("v", false, "debug logging plus progress/ETA lines for long-running phases on stderr")
	quiet := fs.Bool("quiet", false, "errors only on stderr (overrides -v)")
	traceFile := fs.String("trace", "", "write a runtime/trace of the run to this file")
	traceEventFile := fs.String("tracefile", "", "write a Chrome trace_event JSON span trace of the run (open in Perfetto) to this file")
	seed := fs.Int64("seed", 0, "override the traffic-matrix sampling seed (0 = scale default)")
	pairs := fs.Int("pairs", 0, "override the number of sampled city pairs (0 = scale default)")
	cities := fs.Int("cities", 0, "override the number of cities (0 = scale default)")
	snapshots := fs.Int("snapshots", 0, "override the snapshot count (0 = scale default)")
	faultName := fs.String("fault", "sat", "resilience scenario: sat|plane|site|isl|gslcap")
	motifName := fs.String("motif", "", "ISL topology motif: plus-grid|diag-grid|ladder|nearest|demand (default +Grid)")
	churnStep := fs.Duration("churn-step", time.Second, "churn experiment: time between instants")
	churnWindow := fs.Duration("churn-window", time.Minute, "churn experiment: total simulated span")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile for the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	resume := fs.String("resume", "", "journal experiment/snapshot completion to this file and resume from it after a crash or Ctrl-C")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: leosim [flags] <experiment>\n       leosim serve [flags]\n       leosim check [flags]\n\nexperiments: fig2a fig2b fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 te modcod churn xchurn passes util pathchurn beams relays gsoimpact resilience topo geojson disconnected info all ext\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(version.Get())
		return nil
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("exactly one experiment expected")
	}
	cmd := strings.ToLower(fs.Arg(0))

	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	if *pairs > 0 {
		scale.NumPairs = *pairs
	}
	if *cities > 0 {
		scale.NumCities = *cities
	}
	if *snapshots > 0 {
		scale.NumSnapshots = *snapshots
	}
	choice, err := constellationByName(*constName)
	if err != nil {
		return err
	}

	// All operator chatter (run headers, timings, progress) goes through
	// slog on stderr, so stdout carries nothing but results — with -json, a
	// machine-clean stream of envelopes.
	lvl := slog.LevelInfo
	switch {
	case *quiet:
		lvl = slog.LevelError
	case *verbose:
		lvl = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	if *verbose {
		leosim.SetProgress(os.Stderr)
	}
	// Batch runs always record stage histograms: the cost with telemetry
	// enabled is still nanoseconds per stage, and the per-run breakdown
	// (stage_times, debug logs) depends on it.
	leosim.EnableTelemetry()
	// -tracefile captures every span the run completes — one track per
	// snapshot — and exports Chrome trace_event JSON for Perfetto.
	if *traceEventFile != "" {
		if _, err := leosim.StartTracing(leosim.DefaultTraceCapacity); err != nil {
			return fmt.Errorf("tracefile: %w", err)
		}
		defer func() {
			tr := leosim.StopTracing()
			if tr == nil {
				return
			}
			f, err := atomicfile.Create(*traceEventFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "leosim: tracefile:", err)
				return
			}
			defer f.Abort() // no-op once committed
			if err := tr.WriteChrome(f); err != nil {
				fmt.Fprintln(os.Stderr, "leosim: tracefile:", err)
				return
			}
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, "leosim: tracefile:", err)
			}
		}()
	}
	// Profiles and traces go through atomic temp+fsync+rename writes: a
	// crash mid-run leaves no truncated file for pprof to choke on later.
	if *traceFile != "" {
		f, err := atomicfile.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Abort() // no-op once committed
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer func() {
			trace.Stop()
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, "leosim: trace:", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := atomicfile.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Abort()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, "leosim: cpuprofile:", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := atomicfile.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "leosim: memprofile:", err)
				return
			}
			defer f.Abort()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "leosim: memprofile:", err)
				return
			}
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, "leosim: memprofile:", err)
			}
		}()
	}

	start := time.Now()
	var simOpts []leosim.SimOption
	if *motifName != "" {
		id, err := leosim.ParseMotif(*motifName)
		if err != nil {
			return err
		}
		simOpts = append(simOpts, leosim.WithMotifID(id))
	}
	sim, err := leosim.NewSim(choice, scale, simOpts...)
	if err != nil {
		return err
	}
	logger.Info("sim ready", "sim", sim.String(),
		"buildMs", time.Since(start).Milliseconds())

	// -resume binds this run to a journal: completed experiments replay
	// their stored output, the snapshot-level sweeps skip journaled
	// snapshots, and the journal description pins every flag that shapes
	// the output — the sim's summary carries counts only, so the seed and
	// the motif are named too — so incompatible runs can never be spliced
	// together.
	var jour *leosim.Journal
	if *resume != "" {
		desc := fmt.Sprintf("%s seed=%d motif=%s cmd=%s json=%t cdf=%d fault=%s churn=%v/%v",
			sim, scale.Seed, *motifName, cmd, *jsonOut, *cdfPoints, *faultName, *churnStep, *churnWindow)
		jour, err = leosim.OpenJournal(*resume, desc)
		if err != nil {
			return err
		}
		ctx = leosim.WithJournal(ctx, jour)
		logger.Info("journal open", "path", *resume, "records", jour.Len())
	}

	experiments := []string{cmd}
	switch cmd {
	case "all":
		experiments = []string{"fig2a", "fig3", "fig4", "fig5", "disconnected",
			"fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	case "ext":
		experiments = []string{"util", "pathchurn", "te", "modcod", "beams",
			"gsoimpact", "resilience", "topo", "churn", "xchurn", "passes"}
	}
	for _, e := range experiments {
		if jour != nil {
			if out, ok := jour.DoneOutput(e); ok {
				logger.Info("experiment replayed from journal", "name", e)
				leosim.EmitJournalReplayEvent(e, len(out))
				if _, err := stdout.Write(out); err != nil {
					return err
				}
				continue
			}
		}
		t0 := time.Now()
		logger.Info("experiment start", "name", e)
		// One recorder per experiment: every pipeline stage run under this
		// context attributes its time here, surfacing as "stage_times" in
		// the JSON envelope and in the done log line.
		rec := leosim.NewTelemetryRecorder()
		ectx := leosim.WithTelemetryRecorder(ctx, rec)
		w := stdout
		emitRec := rec
		var buf *bytes.Buffer
		if jour != nil {
			// Journaled output is buffered so only complete experiments are
			// marked done, and emitted without stage_times — wall-clock
			// timings would make replayed output differ from recomputed.
			buf = &bytes.Buffer{}
			w = buf
			emitRec = nil
		}
		churnOpt := leosim.ChurnOptions{Step: *churnStep, Window: *churnWindow}
		rerr := runExperiment(ectx, sim, e, *cdfPoints, *jsonOut, *faultName, churnOpt, emitRec, w)
		if buf != nil && buf.Len() > 0 {
			// Flush even on error: a cancelled sweep still emits its
			// partial-prefix envelope, exactly like an unjournaled run.
			if _, err := stdout.Write(buf.Bytes()); err != nil {
				return err
			}
		}
		if rerr != nil {
			return fmt.Errorf("%s: %w", e, rerr)
		}
		if jour != nil {
			if err := jour.MarkDone(e, buf.Bytes()); err != nil {
				return err
			}
		}
		attrs := []any{slog.String("name", e),
			slog.Int64("durMs", time.Since(t0).Milliseconds())}
		if stages := rec.Summary(); stages != "" {
			attrs = append(attrs, slog.String("stages", stages))
		}
		logger.Info("experiment done", attrs...)
	}
	return nil
}

func runExperiment(ctx context.Context, sim *leosim.Sim, cmd string, cdfPoints int, jsonOut bool, faultName string, churnOpt leosim.ChurnOptions, rec *leosim.TelemetryRecorder, w io.Writer) error {
	// partial is set by the experiments that can flush a completed prefix
	// after cancellation (fig2a/fig2b, disconnected, resilience) before they
	// call emit; the JSON envelope then carries "partial": true.
	partial := false
	emit := func(data interface{}, text func()) error {
		if jsonOut {
			return leosim.WriteJSONStages(w, cmd, sim, data, partial, rec)
		}
		text()
		return nil
	}
	switch cmd {
	case "info":
		fmt.Fprintln(w, sim)
		return nil
	case "fig2a", "fig2b":
		res, rerr := leosim.RunLatency(ctx, sim)
		if res == nil {
			return rerr
		}
		partial = res.Partial
		if err := emit(res, func() { leosim.WriteLatencyReport(w, res, cdfPoints) }); err != nil {
			return err
		}
		return rerr
	case "fig3":
		res, err := leosim.RunPathTrace(ctx, sim, "Maceió", "Durban", leosim.BP)
		if err != nil {
			return err
		}
		return emit(res, func() {
			for _, tr := range res.Traces {
				if tr.Reachable {
					fmt.Fprintf(w, "%s rtt=%6.1fms hops=%2d aircraft=%d route=%s\n",
						tr.Time.Format("15:04"), tr.RTTMs, tr.Hops, tr.AircraftHops, tr.Route)
				} else {
					fmt.Fprintf(w, "%s unreachable\n", tr.Time.Format("15:04"))
				}
			}
			fmt.Fprintf(w, "fig3 RTT inflation (max-min): %.1f ms; uses aircraft: %v\n",
				res.RTTInflationMs(), res.UsesAircraftEver())
		})
	case "fig4":
		rows, err := leosim.RunFig4(ctx, sim)
		if err != nil {
			return err
		}
		return emit(rows, func() { leosim.WriteFig4Report(w, rows) })
	case "fig5":
		pts, bp, err := leosim.RunFig5(ctx, sim, []float64{0.5, 1, 2, 3, 4, 5})
		if err != nil {
			return err
		}
		return emit(struct {
			BPBaselineGbps float64            `json:"bpBaselineGbps"`
			Points         []leosim.Fig5Point `json:"points"`
		}{bp, pts}, func() { leosim.WriteFig5Report(w, pts, bp) })
	case "disconnected":
		res, rerr := leosim.RunDisconnected(ctx, sim)
		if res == nil {
			return rerr
		}
		partial = res.Partial
		if err := emit(res, func() { leosim.WriteDisconnectReport(w, res) }); err != nil {
			return err
		}
		return rerr
	case "topo":
		// Topology lab: every ISL motif × {BP, Hybrid} compared on latency,
		// throughput, fault resilience and route churn (§ topology design).
		res, err := leosim.RunTopo(ctx, sim, leosim.TopoOptions{
			FaultScenario: leosim.FaultScenario(faultName),
			ChurnStep:     churnOpt.Step,
			ChurnWindow:   churnOpt.Window,
		})
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WriteTopoReport(w, res) })
	case "resilience":
		sc := leosim.FaultScenario(faultName)
		res, rerr := leosim.RunResilience(ctx, sim, sc, nil)
		if res == nil {
			return rerr
		}
		partial = res.Partial
		if err := emit(res, func() { leosim.WriteResilienceReport(w, res) }); err != nil {
			return err
		}
		return rerr
	case "fig6":
		res, err := leosim.RunWeather(ctx, sim)
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WriteWeatherReport(w, res, cdfPoints) })
	case "fig7":
		res, err := leosim.RunHeatmap(ctx, sim, "Delhi", "Sydney", 2)
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WriteHeatmapReport(w, res) })
	case "fig8":
		res, err := leosim.RunPairWeather(ctx, sim, "Delhi", "Sydney")
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WritePairWeatherReport(w, res) })
	case "fig9":
		rows, err := leosim.RunGSOArc(ctx, sim, 40, []float64{0, 10, 20, 30, 40, 50, 60, 70, 80})
		if err != nil {
			return err
		}
		return emit(rows, func() { leosim.WriteGSOReport(w, rows) })
	case "fig10":
		res, err := leosim.RunCrossShell(ctx, sim, "Brisbane", "Tokyo")
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WriteCrossShellReport(w, res) })
	case "relays":
		base := sim.Scale
		points, err := leosim.RunRelayDensitySweep(ctx, sim.Choice, base, []float64{base.RelaySpacingDeg, base.RelaySpacingDeg * 2, base.RelaySpacingDeg * 4})
		if err != nil {
			return err
		}
		return emit(points, func() { leosim.WriteRelayReport(w, points) })
	case "gsoimpact":
		res, err := leosim.RunGSOImpact(ctx, sim)
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WriteGSOImpactReport(w, res) })
	case "beams":
		points, err := leosim.RunBeamSweep(ctx, sim, []int{2, 4, 8, 16, 0}, leosim.Epoch)
		if err != nil {
			return err
		}
		return emit(points, func() { leosim.WriteBeamReport(w, points) })
	case "geojson":
		return leosim.WriteSnapshotGeoJSON(w, sim, 0, leosim.Epoch)
	case "util":
		bp, err := leosim.RunUtilization(ctx, sim, leosim.BP, leosim.Epoch)
		if err != nil {
			return err
		}
		hy, err := leosim.RunUtilization(ctx, sim, leosim.Hybrid, leosim.Epoch)
		if err != nil {
			return err
		}
		return emit([]*leosim.UtilizationResult{bp, hy}, func() {
			leosim.WriteUtilizationReport(w, bp, hy)
		})
	case "pathchurn":
		res, err := leosim.RunPathChurn(ctx, sim)
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WritePathChurnReport(w, res) })
	case "passes":
		// §2: "Each satellite is reachable from a GT for a few minutes."
		city, err := ground.CityByName("London")
		if err != nil {
			return err
		}
		st, err := constellation.TerminalPassStats(sim.Const, city.Position(),
			sim.Choice.Shell().MinElevationDeg, leosim.Epoch, time.Hour, 20*time.Second)
		if err != nil {
			return err
		}
		return emit(st, func() {
			fmt.Fprintf(w, "passes over %s in 1h: %d (mean %v, max %v)\n",
				city.Name, st.Passes, st.MeanDuration.Round(time.Second), st.MaxDuration.Round(time.Second))
			fmt.Fprintf(w, "passes mean simultaneously visible satellites: %.1f\n", st.MeanVisible)
		})
	case "churn":
		// Seconds-scale link/route dynamics via the incremental advancer —
		// resolution the 15-minute snapshot grid cannot see.
		res, err := leosim.RunChurn(ctx, sim, churnOpt)
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WriteChurnReport(w, res) })
	case "xchurn":
		// §8: cross-shell ISL pairings are short-lived. Quantified against
		// a polar shell added to this sim's constellation.
		multi, err := constellation.New(
			[]constellation.Shell{sim.Choice.Shell(), constellation.PolarShell()},
			constellation.WithISLs())
		if err != nil {
			return err
		}
		st, err := constellation.CrossShellChurn(multi, 0, 1, leosim.Epoch, time.Minute, 45)
		if err != nil {
			return err
		}
		return emit(st, func() {
			fmt.Fprintf(w, "xchurn cross-shell pairing lifetime: %v\n", st.MeanLifetime.Round(time.Second))
			fmt.Fprintf(w, "xchurn switches per satellite-hour: %.1f (intra-shell +Grid: 0)\n", st.SwitchesPerSatPerHour)
			fmt.Fprintf(w, "xchurn mean nearest range: %.0f km\n", st.MeanRangeKm)
		})
	case "modcod":
		res, err := leosim.RunWeatherCapacity(ctx, sim)
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WriteModcodReport(w, res) })
	case "te":
		res, err := leosim.RunTrafficEngineering(ctx, sim, leosim.Hybrid, 4, leosim.Epoch)
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WriteTEReport(w, res) })
	case "fig11":
		nearby := []string{"Rouen", "Orléans", "Reims", "Amiens", "Le Mans"}
		res, err := leosim.RunFiberAugmentation(ctx, sim, "Paris", nearby, 200, leosim.Epoch)
		if err != nil {
			return err
		}
		return emit(res, func() { leosim.WriteFiberReport(w, res) })
	default:
		return fmt.Errorf("unknown experiment %q", cmd)
	}
}
