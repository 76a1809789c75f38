// Package leosim reproduces the analysis of "'Internet from Space' without
// Inter-satellite Links?" (Hauri, Bhattacherjee, Grossmann, Singla —
// ACM HotNets 2020): a comparison of bent-pipe (BP) and hybrid (BP+ISL)
// connectivity for LEO broadband mega-constellations across latency and its
// variability, network-wide throughput, and resilience to weather.
//
// This root package is the public facade: it re-exports the experiment
// engine (internal/core), the constellation/orbit/ground substrates it is
// built from, and convenience constructors, so downstream users program
// against one import path:
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
// The deeper layers remain available for specialised use — orbital mechanics
// (internal/orbit: Kepler + a full SGP4 port with TLE I/O), Walker-shell and
// +Grid ISL generation (internal/constellation), the ground segment with
// city dataset, relay grids and the GSO arc-avoidance rule (internal/ground),
// synthetic air traffic (internal/aircraft), the snapshot graph engine
// (internal/graph), the max-min fair allocator (internal/flow), and the
// ITU-R attenuation models (internal/itur).
package leosim

import (
	"io"
	"time"

	"leosim/internal/check"
	"leosim/internal/constellation"
	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/ground"
	"leosim/internal/itur"
	"leosim/internal/stats"
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

// ISL topology motifs for the topology lab (internal/topo).
const (
	// PlusGridMotif is the paper's §2 +Grid baseline.
	PlusGridMotif = topo.PlusGrid
	// DiagGridMotif shifts cross-plane links by a slot offset.
	DiagGridMotif = topo.DiagGrid
	// LadderMotif keeps only the intra-plane rings (2 ISLs/sat).
	LadderMotif = topo.Ladder
	// NearestMotif greedily matches nearest inter-plane neighbours,
	// recomputed per snapshot epoch.
	NearestMotif = topo.Nearest
	// DemandMotif places a fixed ISL budget along gravity demand.
	DemandMotif = topo.Demand
)

// Fault-injection scenarios for RunResilience.
const (
	// SatOutage fails a random fraction of satellites.
	SatOutage = fault.SatOutage
	// PlaneOutage fails whole orbital planes (correlated failures).
	PlaneOutage = fault.PlaneOutage
	// SiteOutage fails ground sites (cities and relays).
	SiteOutage = fault.SiteOutage
	// ISLOutage fails individual ISL lasers.
	ISLOutage = fault.ISLOutage
	// GSLDegrade scales GSL capacity down fleet-wide (rain fade).
	GSLDegrade = fault.GSLDegrade
)

// Core experiment types.
type (
	// Sim is a fully assembled simulation (constellation, ground segment,
	// aircraft fleet, traffic matrix).
	Sim = core.Sim
	// Scale sizes an experiment (see FullScale, ReducedScale, TinyScale).
	Scale = core.Scale
	// Mode selects BP or Hybrid connectivity.
	Mode = core.Mode
	// ConstellationChoice selects Starlink or Kuiper.
	ConstellationChoice = core.ConstellationChoice
	// Pair is one traffic demand between two cities.
	Pair = core.Pair
	// LatencyResult is the Fig 2 output.
	LatencyResult = core.LatencyResult
	// ThroughputResult is one §5 throughput data point.
	ThroughputResult = core.ThroughputResult
	// Fig4Row is one cell of the Fig 4 matrix.
	Fig4Row = core.Fig4Row
	// Fig5Point is one point of the Fig 5 ISL-capacity sweep.
	Fig5Point = core.Fig5Point
	// WeatherResult is the Fig 6 output.
	WeatherResult = core.WeatherResult
	// PairWeather is the Fig 7/8 single-pair weather comparison.
	PairWeather = core.PairWeather
	// DisconnectResult is the §5 disconnected-satellite statistic.
	DisconnectResult = core.DisconnectResult
	// PathTraceResult is the Fig 3 path trace.
	PathTraceResult = core.PathTraceResult
	// CrossShellResult is the Fig 10 BP-augmentation result.
	CrossShellResult = core.CrossShellResult
	// FiberResult is the Fig 11 fiber-augmentation result.
	FiberResult = core.FiberResult
	// GSORow is one latitude row of the Fig 9 GSO-arc analysis.
	GSORow = core.GSORow
	// TEResult compares shortest-delay vs min-max-utilization routing.
	TEResult = core.TEResult
	// Band is a frequency plan for the weather experiments.
	Band = core.Band
	// ModcodResult is the capacity-retention extension of §6.
	ModcodResult = core.ModcodResult
	// UtilizationResult is the per-satellite load distribution.
	UtilizationResult = core.UtilizationResult
	// PathChurnResult is the path-stability comparison.
	PathChurnResult = core.PathChurnResult
	// Walker is an incremental time cursor over one mode's network:
	// seconds-scale steps cost a per-step delta instead of a full rebuild.
	Walker = core.Walker
	// ChurnOptions configures the seconds-scale churn experiment.
	ChurnOptions = core.ChurnOptions
	// ChurnResult is the seconds-scale link/route churn report.
	ChurnResult = core.ChurnResult
	// ChurnModeStats is one mode's route-stability rates within it.
	ChurnModeStats = core.ChurnModeStats
	// HeatmapResult is the Fig 7 regional attenuation map.
	HeatmapResult = core.HeatmapResult
	// BeamPoint is one cell of the beam-limit sweep.
	BeamPoint = core.BeamPoint
	// RelayPoint is one cell of the relay-density sweep.
	RelayPoint = core.RelayPoint
	// GSOImpactResult is §7's end-to-end arc-avoidance comparison.
	GSOImpactResult = core.GSOImpactResult
	// ResilienceResult is the fault-injection degradation sweep.
	ResilienceResult = core.ResilienceResult
	// ResiliencePoint is one fraction × mode cell of the sweep.
	ResiliencePoint = core.ResiliencePoint
	// FaultScenario names one failure dimension (SatOutage, PlaneOutage,
	// SiteOutage, ISLOutage, GSLDegrade).
	FaultScenario = fault.Scenario
	// FaultPlan is a seeded failure description, realizable against a
	// constellation into concrete outages.
	FaultPlan = fault.Plan
	// FaultOutages is a realized failure set; Masked derives the faulted
	// network from a healthy one.
	FaultOutages = fault.Outages
	// Shell describes one orbital shell.
	Shell = constellation.Shell
	// City is one traffic source/sink.
	City = ground.City
	// Summary holds summary statistics.
	Summary = stats.Summary
	// Curve is an attenuation exceedance curve.
	Curve = itur.Curve
	// LatLon is a geodetic position.
	LatLon = geo.LatLon
	// SimOption tweaks simulation construction.
	SimOption = core.SimOption
	// CheckOptions sizes an invariant-checking sweep (RunCheck).
	CheckOptions = core.CheckOptions
	// CheckReport carries the outcome of an invariant sweep: per-class
	// violation counts, capped samples, and coverage counters.
	CheckReport = check.Report
	// CheckViolation is one sampled invariant violation.
	CheckViolation = check.Violation
	// Motif is an ISL link-placement strategy (topology lab).
	Motif = topo.Motif
	// MotifID names a built-in motif (PlusGridMotif, DiagGridMotif, …).
	MotifID = topo.ID
	// MotifConfig carries motif construction knobs.
	MotifConfig = topo.Config
	// TopoOptions configures the topology-lab sweep.
	TopoOptions = core.TopoOptions
	// TopoResult is the motif × mode comparison table.
	TopoResult = core.TopoResult
	// TopoCell is one motif × mode cell of it.
	TopoCell = core.TopoCell
	// Float is the float64 of result fields that can be non-finite (an
	// unreachable median is +Inf): JSON null on the wire.
	Float = core.Float
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
	// WithGSOAvoidance applies the §7 GSO arc-avoidance constraint.
	WithGSOAvoidance = core.WithGSOAvoidance
	// WithMinElevation overrides the minimum elevation angle.
	WithMinElevation = core.WithMinElevation
	// WithExtraShells adds shells beyond the chosen preset.
	WithExtraShells = core.WithExtraShells
	// WithSGP4Propagation switches the propagator to SGP4.
	WithSGP4Propagation = core.WithSGP4Propagation
	// WithSatelliteCapacity sets the per-satellite aggregate GSL pool
	// (default 20 Gbps; 0 disables — the per-link-only ablation model).
	WithSatelliteCapacity = core.WithSatelliteCapacity
	// Cities returns the n-most-populous city dataset.
	Cities = ground.Cities
	// SamplePairs draws the paper's traffic matrix.
	SamplePairs = core.SamplePairs
	// WithMotif replaces the +Grid ISL topology with a custom motif.
	WithMotif = core.WithMotif
	// WithMotifID resolves a built-in motif by ID inside NewSim (the
	// -motif CLI path), handing it the sim's own demand model.
	WithMotifID = core.WithMotifID
	// BuildMotif constructs a built-in motif from its ID and config.
	BuildMotif = topo.Build
	// ParseMotif resolves a motif name ("plus-grid", "diag-grid", …).
	ParseMotif = topo.ParseID
	// MotifIDs lists every built-in motif.
	MotifIDs = topo.IDs
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
	// RunThroughput computes one §5 throughput cell.
	RunThroughput = core.RunThroughput
	// RunFig4 evaluates the Fig 4 matrix ({BP,Hybrid} × {k=1,4}).
	RunFig4 = core.RunFig4
	// RunFig5 sweeps ISL capacity (Fig 5).
	RunFig5 = core.RunFig5
	// RunDisconnected measures BP's stranded satellites (§5).
	RunDisconnected = core.RunDisconnected
	// RunWeather runs §6 / Fig 6 (attenuation across pairs, Ku band).
	RunWeather = core.RunWeather
	// RunWeatherBand runs Fig 6 at another frequency plan (e.g. KaBand).
	RunWeatherBand = core.RunWeatherBand
	// RunPairWeather runs Fig 7/8 for one named pair.
	RunPairWeather = core.RunPairWeather
	// RunGSOArc quantifies Fig 9 (GSO arc avoidance).
	RunGSOArc = core.RunGSOArc
	// RunCrossShell quantifies Fig 10 (BP augmentation across shells).
	RunCrossShell = core.RunCrossShell
	// RunFiberAugmentation quantifies Fig 11 (fiber augmentation).
	RunFiberAugmentation = core.RunFiberAugmentation
	// RunTrafficEngineering evaluates §5's future-work routing scheme
	// (minimize max utilization) against shortest-delay multipath.
	RunTrafficEngineering = core.RunTrafficEngineering
	// RunWeatherCapacity converts §6's attenuation into capacity
	// retention through an adaptive MODCOD ladder.
	RunWeatherCapacity = core.RunWeatherCapacity
	// RunUtilization measures per-satellite carried load (§5's unused
	// satellites, beyond mere disconnection).
	RunUtilization = core.RunUtilization
	// RunPathChurn measures how often each pair's path changes (§4).
	RunPathChurn = core.RunPathChurn
	// RunChurn measures GSL and route churn at seconds-scale resolution
	// via the incremental advancer (the regime snapshot grids cannot see).
	RunChurn = core.RunChurn
	// RunHeatmap computes the Fig 7 regional attenuation map with the
	// BP/ISL path overlays.
	RunHeatmap = core.RunHeatmap
	// RunBeamSweep quantifies §2's frequency-management assumption by
	// capping simultaneous beams per satellite.
	RunBeamSweep = core.RunBeamSweep
	// RunRelayDensitySweep shows what coarser relay grids cost BP.
	RunRelayDensitySweep = core.RunRelayDensitySweep
	// RunGSOImpact measures §7's end-to-end effect of arc avoidance.
	RunGSOImpact = core.RunGSOImpact
	// RunResilience sweeps a failure scenario over growing fractions and
	// reports BP-vs-Hybrid latency inflation, unreachable pairs and
	// throughput retention. Deterministic for a fixed sim seed.
	RunResilience = core.RunResilience
	// DefaultFaultFractions is the standard 0–30% sweep.
	DefaultFaultFractions = core.DefaultFaultFractions
	// FaultScenarios lists every supported scenario.
	FaultScenarios = fault.Scenarios
	// ForFaultScenario builds the plan failing a fraction of one resource.
	ForFaultScenario = fault.ForScenario
	// RunCheck sweeps the invariant-validation suite over a sim: graph
	// physics, path optimality/symmetry/dominance, and max-min optimality
	// conditions. Backs `leosim check`.
	RunCheck = core.RunCheck
	// RunTopo runs the topology-lab sweep: every motif × {BP, Hybrid}
	// compared on latency, throughput, fault resilience and route churn.
	RunTopo = core.RunTopo
)

// Report writers (text renderings of each figure/table).
var (
	WriteLatencyReport     = core.WriteLatencyReport
	WriteFig4Report        = core.WriteFig4Report
	WriteFig5Report        = core.WriteFig5Report
	WriteWeatherReport     = core.WriteWeatherReport
	WritePairWeatherReport = core.WritePairWeatherReport
	WriteDisconnectReport  = core.WriteDisconnectReport
	WriteGSOReport         = core.WriteGSOReport
	WriteCrossShellReport  = core.WriteCrossShellReport
	WriteFiberReport       = core.WriteFiberReport
	WriteTEReport          = core.WriteTEReport
	WriteModcodReport      = core.WriteModcodReport
	WriteUtilizationReport = core.WriteUtilizationReport
	WriteHeatmapReport     = core.WriteHeatmapReport
	WriteBeamReport        = core.WriteBeamReport
	WriteRelayReport       = core.WriteRelayReport
	WriteGSOImpactReport   = core.WriteGSOImpactReport
	WritePathChurnReport   = core.WritePathChurnReport
	WriteChurnReport       = core.WriteChurnReport
	WriteResilienceReport  = core.WriteResilienceReport
	WriteTopoReport        = core.WriteTopoReport
	// WriteJSON emits any experiment result as a JSON envelope.
	WriteJSON = core.WriteJSON
	// WriteSnapshotGeoJSON exports a snapshot + routed pair as GeoJSON.
	WriteSnapshotGeoJSON = core.WriteSnapshotGeoJSON
)

// Direct access to the ITU-R attenuation models (§6's substrate).
var (
	// TotalAttenuation returns A(p) in dB for one slant path.
	TotalAttenuation = itur.TotalAttenuation
	// ScaleRainAttenuationFrequency applies P.618 §2.2.1.2 frequency
	// scaling between bands (7–55 GHz).
	ScaleRainAttenuationFrequency = itur.ScaleRainAttenuationFrequency
	// ReceivedPowerFraction converts dB of attenuation to power fraction.
	ReceivedPowerFraction = itur.ReceivedPowerFraction
)

// AttenuationLink describes one slant path for TotalAttenuation.
type AttenuationLink = itur.LinkParams

// Constellation presets.
var (
	// StarlinkPhase1 returns the Starlink first-phase shell.
	StarlinkPhase1 = constellation.StarlinkPhase1
	// KuiperPhase1 returns the Kuiper first-phase shell.
	KuiperPhase1 = constellation.KuiperPhase1
	// PolarShell returns the small polar shell used by Fig 10.
	PolarShell = constellation.PolarShell
)

// Frequency plans for the §6 weather experiments.
var (
	// KuBand is the paper's Ku-band plan (14.25/11.7 GHz).
	KuBand = core.KuBand
	// KaBand is the gateway band §6 flags as more weather-affected.
	KaBand = core.KaBand
)

// Epoch is the fixed simulation reference epoch.
var Epoch = geo.Epoch

// SnapshotAt is a convenience for building a one-off time offset from the
// epoch.
func SnapshotAt(offset time.Duration) time.Time { return geo.Epoch.Add(offset) }

// SetProgress directs coarse progress lines from long-running experiment
// phases (thousands of routed pairs at full scale) to w; nil silences them.
// Snapshot-sweep experiments additionally emit throttled progress/ETA lines
// to the same writer.
func SetProgress(w io.Writer) { core.Progress = w }

// TelemetryRecorder accumulates per-run stage timings (graph build, search,
// allocation, …) when attached to the run's context.
type TelemetryRecorder = telemetry.Recorder

// Observability entry points (internal/telemetry).
var (
	// EnableTelemetry installs the process-global metrics registry; every
	// pipeline stage then feeds its latency histogram. Near-zero cost is
	// paid when disabled (one atomic load per stage).
	EnableTelemetry = telemetry.Enable
	// NewTelemetryRecorder creates a per-run stage-time recorder.
	NewTelemetryRecorder = telemetry.NewRecorder
	// WithTelemetryRecorder attaches a recorder to a context; Run* calls
	// under that context attribute their stage times to it.
	WithTelemetryRecorder = telemetry.WithRecorder
	// WriteJSONStages is WriteJSON with an explicit partial flag (a cancelled
	// run flushing the prefix it completed) plus the recorder's stage-time
	// breakdown in the envelope ("stage_times").
	WriteJSONStages = core.WriteJSONStages
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
	// JournalFrom extracts the context's journal (nil when unjournaled).
	JournalFrom = core.JournalFrom
)
