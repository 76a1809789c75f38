// Package leosim reproduces the analysis of "'Internet from Space' without
// Inter-satellite Links?" (Hauri, Bhattacherjee, Grossmann, Singla —
// ACM HotNets 2020): a comparison of bent-pipe (BP) and hybrid (BP+ISL)
// connectivity for LEO broadband mega-constellations across latency and its
// variability, network-wide throughput, and resilience to weather.
//
// This root package is the public facade: it re-exports the parts of the
// experiment engine (internal/core) and its substrates that the leosim
// command, the examples and the benchmark harness program against, so they
// need one import path:
//
//	sim, err := leosim.NewSim(leosim.Starlink, leosim.ReducedScale())
//	res, err := leosim.RunLatency(ctx, sim)
//	leosim.WriteLatencyReport(os.Stdout, res, 20)
//
// Every Run* entry point takes a context.Context and stops cooperatively —
// within about one snapshot's work — when it is cancelled; experiments that
// aggregate across snapshots return the completed prefix (flagged Partial)
// alongside ctx.Err(). Worker panics inside the parallel phases surface as
// returned errors carrying the worker's stack, never as a crashed process.
//
// Every experiment the paper's figures and the extensions need is a row of
// Experiments; the rest of the engine — orbital mechanics (internal/orbit),
// Walker shells and ISL motifs (internal/constellation, internal/topo), the
// ground segment (internal/ground), the snapshot graph engine
// (internal/graph), the max-min fair allocator (internal/flow) and the ITU-R
// attenuation models (internal/itur) — is reached through them.
package leosim

import (
	"io"
	"time"

	"leosim/internal/check"
	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/telemetry"
	"leosim/internal/topo"
)

// Connectivity modes and constellation choices.
const (
	// BP is bent-pipe-only connectivity (no ISLs).
	BP = core.BP
	// Hybrid is BP plus +Grid laser ISLs.
	Hybrid = core.Hybrid
	// Starlink selects the 72×22 / 550 km / 53° phase-1 shell.
	Starlink = core.Starlink
	// Kuiper selects the 34×34 / 630 km / 51.9° phase-1 shell.
	Kuiper = core.Kuiper
)

// Fault-injection scenarios for RunResilience.
const (
	// SatOutage fails a random fraction of satellites.
	SatOutage = fault.SatOutage
	// PlaneOutage fails whole orbital planes (correlated failures).
	PlaneOutage = fault.PlaneOutage
)

// Core experiment types.
type (
	// Scale sizes an experiment (see FullScale, ReducedScale, TinyScale).
	Scale = core.Scale
	// Mode selects BP or Hybrid connectivity.
	Mode = core.Mode
	// ConstellationChoice selects Starlink or Kuiper.
	ConstellationChoice = core.ConstellationChoice
	// SimOption tweaks simulation construction.
	SimOption = core.SimOption
	// FaultScenario names one failure dimension (SatOutage, PlaneOutage,
	// site, ISL and GSL-capacity faults).
	FaultScenario = fault.Scenario
	// CheckOptions sizes an invariant-checking sweep (RunCheck).
	CheckOptions = core.CheckOptions
	// CheckReport carries the outcome of an invariant sweep: per-class
	// violation counts, capped samples, and coverage counters.
	CheckReport = check.Report
	// Experiment is one row of the experiment table (Experiments).
	Experiment = core.Experiment
	// ExperimentArgs are the experiment settings `leosim` exposes as flags.
	ExperimentArgs = core.Args
)

// Experiment sizing presets.
var (
	// FullScale reproduces the paper's sizing (1,000 cities, 5,000 pairs,
	// 0.5° relays, 96×15-min snapshots). Minutes to hours of CPU.
	FullScale = core.FullScale
	// LargeScale approaches the paper's contention level; minutes/experiment.
	LargeScale = core.LargeScale
	// ReducedScale runs every experiment in tens of seconds.
	ReducedScale = core.ReducedScale
	// TinyScale keeps unit tests fast.
	TinyScale = core.TinyScale
)

// Simulation construction.
var (
	// NewSim assembles a simulation for a constellation at a scale.
	NewSim = core.NewSim
	// WithSGP4Propagation switches the propagator to SGP4.
	WithSGP4Propagation = core.WithSGP4Propagation
	// WithMotifID replaces the +Grid ISL topology with a built-in motif,
	// resolved inside NewSim (the -motif CLI path), handing it the sim's own
	// demand model.
	WithMotifID = core.WithMotifID
	// ParseMotif resolves a motif name ("plus-grid", "diag-grid", …).
	ParseMotif = topo.ParseID
)

// Experiments — one per table/figure of the paper's evaluation.
var (
	// Experiments is every experiment `leosim <name>` runs, each with its
	// arguments, the call that computes it and its text report.
	Experiments = core.Experiments
	// DefaultExperimentArgs are the flag defaults of `leosim`.
	DefaultExperimentArgs = core.DefaultArgs
	// RunLatency runs §4 / Fig 2 (latency and its variability).
	RunLatency = core.RunLatency
	// RunPathTrace runs Fig 3 (per-snapshot path trace).
	RunPathTrace = core.RunPathTrace
	// RunFig4 evaluates the Fig 4 matrix ({BP,Hybrid} × {k=1,4}).
	RunFig4 = core.RunFig4
	// RunFig5 sweeps ISL capacity (Fig 5).
	RunFig5 = core.RunFig5
	// RunDisconnected measures BP's stranded satellites (§5).
	RunDisconnected = core.RunDisconnected
	// RunWeather runs §6 / Fig 6 (attenuation across pairs, Ku band).
	RunWeather = core.RunWeather
	// RunPairWeather runs Fig 7/8 for one named pair.
	RunPairWeather = core.RunPairWeather
	// RunResilience sweeps a failure scenario over growing fractions and
	// reports BP-vs-Hybrid latency inflation, unreachable pairs and
	// throughput retention. Deterministic for a fixed sim seed.
	RunResilience = core.RunResilience
	// RunCheck sweeps the invariant-validation suite over a sim: graph
	// physics, path optimality/symmetry/dominance, and max-min optimality
	// conditions. Backs `leosim check`.
	RunCheck = core.RunCheck
)

// Report writers (text renderings of each figure/table).
var (
	WriteLatencyReport     = core.WriteLatencyReport
	WriteFig4Report        = core.WriteFig4Report
	WriteFig5Report        = core.WriteFig5Report
	WriteWeatherReport     = core.WriteWeatherReport
	WritePairWeatherReport = core.WritePairWeatherReport
	WriteDisconnectReport  = core.WriteDisconnectReport
	WriteResilienceReport  = core.WriteResilienceReport
	// WriteJSON emits any experiment result as a JSON envelope.
	WriteJSON = core.WriteJSON
)

// SnapshotAt is a convenience for building a one-off time offset from the
// epoch.
func SnapshotAt(offset time.Duration) time.Time { return geo.Epoch.Add(offset) }

// SetProgress directs coarse progress lines from long-running experiment
// phases (thousands of routed pairs at full scale) to w; nil silences them.
// Snapshot-sweep experiments additionally emit throttled progress/ETA lines
// to the same writer.
func SetProgress(w io.Writer) { core.Progress = w }

// Observability entry points (internal/telemetry).
var (
	// EnableTelemetry installs the process telemetry state (stage
	// histograms, flight recorder, trace capture); every pipeline stage then
	// feeds its latency histogram. Near-zero cost is paid when disabled (one
	// atomic load per stage).
	EnableTelemetry = telemetry.Enable
	// NewTelemetryRecorder creates a per-run stage-time recorder.
	NewTelemetryRecorder = telemetry.NewRecorder
	// WithTelemetryRecorder attaches a recorder to a context; Run* calls
	// under that context attribute their stage times to it.
	WithTelemetryRecorder = telemetry.WithRecorder
	// StartTracing begins the process's exclusive bounded span-trace capture
	// (requires EnableTelemetry); StopTracing ends it and returns the
	// capture, whose WriteChrome exports Chrome trace_event JSON viewable in
	// Perfetto. Each batch snapshot gets its own track.
	StartTracing = telemetry.StartTracing
	StopTracing  = telemetry.StopTracing
	// DumpTelemetryEvents writes the flight recorder's retained events (build
	// failures, breaker transitions, degraded serves, chaos injections) to w —
	// the post-mortem view the CLI wires to panics and SIGQUIT.
	DumpTelemetryEvents = telemetry.DumpEvents
)

// DefaultTraceCapacity bounds a span-trace capture started by StartTracing.
const DefaultTraceCapacity = telemetry.DefaultTraceCapacity

// EmitJournalReplayEvent records a whole-experiment journal replay (stored
// output re-emitted instead of recomputed) in the flight recorder.
func EmitJournalReplayEvent(experiment string, outputBytes int) {
	telemetry.EmitEvent(nil, telemetry.CatJournal, telemetry.SevInfo,
		"journal replay: experiment output re-emitted from journal",
		telemetry.Str("experiment", experiment),
		telemetry.Int64("outputBytes", int64(outputBytes)))
}

// Journal is the crash-safe run journal: per-experiment, per-snapshot
// completion records in a JSONL sidecar, written atomically.
type Journal = core.Journal

// Crash-safe resume entry points (internal/core).
var (
	// OpenJournal opens or creates the journal at a path, bound to one run
	// configuration.
	OpenJournal = core.OpenJournal
	// WithJournal attaches a journal to a context; Run* sweeps under that
	// context record per-snapshot progress and skip journaled work.
	WithJournal = core.WithJournal
)
