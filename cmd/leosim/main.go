// Command leosim runs the paper's experiments from the command line:
//
//	leosim <experiment>     one row of the experiment table (leosim.Experiments)
//	leosim all              the rows of group "all": the paper's figures, in table order
//	leosim ext              the rows of group "ext": the quantified extensions
//	leosim serve            HTTP query service over one sim (see -h for flags)
//	leosim check            invariant-validation sweep, JSON report, exit 1 on violations
//
// `leosim -h` lists every experiment with its group and the paper section it
// reproduces or extends.
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

	def := leosim.DefaultExperimentArgs()
	fs := flag.NewFlagSet("leosim", flag.ContinueOnError)
	showVersion := fs.Bool("version", false, "print the build identity and exit")
	scaleName := fs.String("scale", "reduced", "experiment scale: tiny|reduced|large|full")
	constName := fs.String("constellation", "starlink", "constellation: starlink|kuiper")
	cdfPoints := fs.Int("cdf-points", def.CDFPoints, "points per printed CDF series (0 = none)")
	jsonOut := fs.Bool("json", false, "emit results as JSON envelopes instead of text")
	verbose := fs.Bool("v", false, "debug logging plus progress/ETA lines for long-running phases on stderr")
	quiet := fs.Bool("quiet", false, "errors only on stderr (overrides -v)")
	traceFile := fs.String("trace", "", "write a runtime/trace of the run to this file")
	traceEventFile := fs.String("tracefile", "", "write a Chrome trace_event JSON span trace of the run (open in Perfetto) to this file")
	seed := fs.Int64("seed", 0, "override the traffic-matrix sampling seed (0 = scale default)")
	pairs := fs.Int("pairs", 0, "override the number of sampled city pairs (0 = scale default)")
	cities := fs.Int("cities", 0, "override the number of cities (0 = scale default)")
	snapshots := fs.Int("snapshots", 0, "override the snapshot count (0 = scale default)")
	faultName := fs.String("fault", string(def.Fault), "resilience scenario: sat|plane|site|isl|gslcap")
	motifName := fs.String("motif", "", "ISL topology motif: plus-grid|diag-grid|ladder|nearest|demand (default +Grid)")
	churnStep := fs.Duration("churn-step", def.ChurnStep, "churn experiment: time between instants")
	churnWindow := fs.Duration("churn-window", def.ChurnWindow, "churn experiment: total simulated span")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile for the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	resume := fs.String("resume", "", "journal experiment/snapshot completion to this file and resume from it after a crash or Ctrl-C")
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintf(out, "usage: leosim [flags] <experiment>\n       leosim serve [flags]\n       leosim check [flags]\n\nexperiments (all and ext run their group in this order):\n")
		for _, e := range leosim.Experiments {
			fmt.Fprintf(out, "  %-13s %-4s %s\n", e.Name, e.Group, e.Section)
		}
		fmt.Fprintf(out, "\nflags:\n")
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
	experiments, err := experimentsNamed(cmd)
	if err != nil {
		return err
	}

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
	// -tracefile captures every stage span the run completes and exports
	// Chrome trace_event JSON for Perfetto: a day sweep's spans on one track
	// per snapshot, every other span (all of an experiment without
	// per-snapshot trace IDs, such as fig4) on one "untraced" track.
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

	settings := leosim.ExperimentArgs{Fault: leosim.FaultScenario(*faultName),
		ChurnStep: *churnStep, ChurnWindow: *churnWindow, CDFPoints: *cdfPoints}
	for _, e := range experiments {
		if jour != nil {
			if out, ok := jour.DoneOutput(e.Name); ok {
				logger.Info("experiment replayed from journal", "name", e.Name)
				leosim.EmitJournalReplayEvent(e.Name, len(out))
				if _, err := stdout.Write(out); err != nil {
					return err
				}
				continue
			}
		}
		t0 := time.Now()
		logger.Info("experiment start", "name", e.Name)
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
		rerr := e.Print(ectx, w, sim, settings, *jsonOut, emitRec)
		if buf != nil && buf.Len() > 0 {
			// Flush even on error: a cancelled sweep still emits its
			// partial-prefix envelope, exactly like an unjournaled run.
			if _, err := stdout.Write(buf.Bytes()); err != nil {
				return err
			}
		}
		if rerr != nil {
			return fmt.Errorf("%s: %w", e.Name, rerr)
		}
		if jour != nil {
			if err := jour.MarkDone(e.Name, buf.Bytes()); err != nil {
				return err
			}
		}
		attrs := []any{slog.String("name", e.Name),
			slog.Int64("durMs", time.Since(t0).Milliseconds())}
		if stages := rec.Summary(); stages != "" {
			attrs = append(attrs, slog.String("stages", stages))
		}
		logger.Info("experiment done", attrs...)
	}
	return nil
}

// experimentsNamed resolves an experiment name, or the group name all or ext,
// to its rows of the experiment table.
func experimentsNamed(name string) ([]leosim.Experiment, error) {
	var rows []leosim.Experiment
	names := make([]string, 0, len(leosim.Experiments)+2)
	for _, e := range leosim.Experiments {
		if e.Name == name || (e.Group != "" && e.Group == name) {
			rows = append(rows, e)
		}
		names = append(names, e.Name)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(append(names, "all", "ext"), "|"))
	}
	return rows, nil
}
