package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"leosim/internal/aircraft"
	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/ground"
	"leosim/internal/snapcache"
	"leosim/internal/topo"
)

// Sim owns the simulation state for one constellation at one scale: the
// constellation (with +Grid ISLs generated; whether they are *used* depends
// on the Mode), the ground segment, the aircraft fleet, and the traffic
// matrix. A Sim never changes after NewSim returns — only its snapshot cache
// fills — so every method is safe for concurrent use; a caller that needs
// other cities or options gets a derived Sim (WithCities) and this one stays
// as it was.
type Sim struct {
	Scale  Scale
	Choice ConstellationChoice
	Const  *constellation.Constellation
	Seg    *ground.Segment
	Fleet  *aircraft.Fleet
	Cities []ground.City
	Pairs  []Pair

	// cityIndex maps a city name to its index in Cities (the first, should a
	// name repeat) — FindCity's lookup. Built once in NewSim.
	cityIndex map[string]int

	// Motif is the ISL topology strategy the constellation was built with;
	// nil means the default +Grid. Epoch-aware motifs are re-placed for
	// every snapshot build, cached or not, by Const.ISLsAt.
	Motif topo.Motif

	// SatCapGbps is the aggregate GSL capacity pool per satellite and
	// direction (§2: satellites share their up-down capacity across the
	// GTs they serve). The default 20 Gbps matches §5; 0 disables the
	// constraint (per-link capacities only — the ablation model).
	SatCapGbps float64

	// opts are the options NewSim was called with, kept for derive.
	opts []SimOption

	// builder runs the one scan of an instant (builder.At, the bent-pipe base)
	// under the options NewSim resolved from its SimOptions; every other
	// network of the instant derives from that base.
	builder *graph.Builder

	// snap caches healthy snapshot networks, one per (mode, time); the
	// hybrid entry of t derives from the bent-pipe entry of t (buildSnapshot).
	// snapcache's singleflight means concurrent NetworkAt calls for the
	// same snapshot — the serving workload — build it exactly once.
	snap *snapcache.Cache[snapcache.Key, *graph.Network]
}

// networkCacheSize bounds how many snapshot networks a Sim keeps alive.
// Experiments sweep snapshots in order, both modes per snapshot, so a small
// LRU keeps the base resident while its hybrid derives without pinning the
// whole day at full scale.
const networkCacheSize = 8

// SimOption tweaks simulation construction.
type SimOption func(*simConfig)

type simConfig struct {
	gso         ground.GSOPolicy
	extraShells []constellation.Shell
	sgp4        bool
	satCap      float64
	satCapSet   bool
	motifID     topo.ID
	motifIDSet  bool
	// beamCap caps the terminals each satellite serves at once (the beam
	// sweep's variable; 0 = unlimited).
	beamCap int
	// cities names anchor cities to add beyond the top-N cut (WithCities).
	cities []string
}

// WithSatelliteCapacity sets the per-satellite aggregate GSL capacity pool
// (per direction); 0 disables the constraint so only per-link capacities
// apply. The default is the paper's 20 Gbps.
func WithSatelliteCapacity(gbps float64) SimOption {
	return func(c *simConfig) { c.satCap, c.satCapSet = gbps, true }
}

// WithGSOAvoidance applies the §7 GSO arc-avoidance constraint to ground
// terminals.
func WithGSOAvoidance(p ground.GSOPolicy) SimOption {
	return func(c *simConfig) { c.gso = p }
}

// WithExtraShells adds shells beyond the chosen preset (Fig 10).
func WithExtraShells(shells ...constellation.Shell) SimOption {
	return func(c *simConfig) { c.extraShells = shells }
}

// WithSGP4Propagation propagates satellites with SGP4 (ablation).
func WithSGP4Propagation() SimOption {
	return func(c *simConfig) { c.sgp4 = true }
}

// WithMotifID replaces the default +Grid ISL topology with a built-in motif
// of the topology lab (internal/topo), resolved by ID inside NewSim, where
// the sim's own city set is available — so the demand-aware motif optimizes
// for the same demand model the experiments sample traffic from. Epoch-aware
// motifs (nearest, demand) are re-placed for every snapshot build; static
// motifs keep the link set placed at construction. This is the path the
// -motif CLI flag takes.
func WithMotifID(id topo.ID) SimOption {
	return func(c *simConfig) { c.motifID, c.motifIDSet = id, true }
}

// NewSim assembles a simulation.
func NewSim(choice ConstellationChoice, scale Scale, opts ...SimOption) (*Sim, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	var cfg simConfig
	for _, o := range opts {
		o(&cfg)
	}

	// Cities load before the constellation so a motif resolved by ID can
	// optimize for the sim's own demand model.
	top, err := ground.Cities(scale.NumCities)
	if err != nil {
		return nil, err
	}
	var motif topo.Motif
	if cfg.motifIDSet {
		if motif, err = topo.Build(cfg.motifID, topo.Config{Cities: top}); err != nil {
			return nil, err
		}
	}

	shells := append([]constellation.Shell{choice.Shell()}, cfg.extraShells...)
	constOpts := []constellation.Option{constellation.WithISLs()}
	if motif != nil {
		constOpts = append(constOpts, topo.Option(motif))
	}
	if cfg.sgp4 {
		constOpts = append(constOpts, constellation.WithSGP4())
	}
	c, err := constellation.New(shells, constOpts...)
	if err != nil {
		return nil, err
	}
	// Demand, pairs and the relay grid come from the top-N cities alone; named
	// cities beyond the cut only add terminals, after the top-N and before
	// the relays.
	seg, err := ground.NewSegment(top, scale.RelaySpacingDeg, scale.RelayMaxKm)
	if err != nil {
		return nil, err
	}
	if len(cfg.cities) > 0 {
		var extra []ground.City
		for _, name := range cfg.cities {
			c, err := ground.CityByName(name)
			if err != nil {
				return nil, err
			}
			extra = append(extra, c)
		}
		seg = seg.WithCities(extra...)
	}
	var fleet *aircraft.Fleet
	if scale.AircraftDensity > 0 {
		fleet, err = aircraft.NewFleet(scale.AircraftDensity)
		if err != nil {
			return nil, err
		}
	}
	pairs, err := SamplePairs(top, scale.NumPairs, scale.MinPairKm, scale.Seed)
	if err != nil {
		return nil, err
	}

	satCap := 20.0
	if cfg.satCapSet {
		satCap = cfg.satCap
	}
	s := &Sim{
		Scale:      scale,
		SatCapGbps: satCap,
		Choice:     choice,
		Motif:      motif,
		Const:      c,
		Seg:        seg,
		Fleet:      fleet,
		Cities:     seg.Cities,
		Pairs:      pairs,
		cityIndex:  make(map[string]int, len(seg.Cities)),
		opts:       opts,
	}
	for i := len(seg.Cities) - 1; i >= 0; i-- {
		s.cityIndex[seg.Cities[i].Name] = i
	}
	if s.builder, err = graph.NewBuilder(c, seg, fleet, graph.BuildOptions{GSO: cfg.gso, MaxGSLsPerSatellite: cfg.beamCap}); err != nil {
		return nil, err
	}
	s.snap = snapcache.New(s.buildSnapshot, snapcache.Options{Capacity: networkCacheSize})
	return s, nil
}

// derive builds a sim of the same choice and scale under the options s was
// built with plus extra. The derived sim shares nothing mutable with s.
func (s *Sim) derive(extra ...SimOption) (*Sim, error) {
	return NewSim(s.Choice, s.Scale, append(slices.Clip(s.opts), extra...)...)
}

// WithCities returns a sim in which every named anchor city resolves
// (FindCity), so a trace can target cities outside the top-N population cut:
// s itself when they all do already, otherwise a sim derived from s with the
// missing ones added as city terminals — after the existing cities, never
// sampled into Pairs, the relay grid unchanged.
func (s *Sim) WithCities(names ...string) (*Sim, error) {
	var missing []string
	for _, name := range names {
		if _, ok := s.FindCity(name); !ok && !slices.Contains(missing, name) {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return s, nil
	}
	return s.derive(func(c *simConfig) { c.cities = append(c.cities, missing...) })
}

// buildSnapshot is the snapshot cache's build function: the bent-pipe entry
// of an instant is its one scan, the hybrid entry derives from the same
// cache's bent-pipe entry — resident when a sweep asks for both modes in turn.
func (s *Sim) buildSnapshot(ctx context.Context, key snapcache.Key) (*graph.Network, error) {
	if key.Scenario == BP.String() {
		return s.builder.At(key.Time), nil
	}
	base, err := s.snap.Get(ctx, snapcache.Key{Scenario: BP.String(), Time: key.Time})
	if err != nil {
		return nil, err
	}
	return s.builder.Hybrid(base, key.Time), nil
}

// SnapshotTimes returns the simulated-day sampling instants.
func (s *Sim) SnapshotTimes() []time.Time {
	out := make([]time.Time, s.Scale.NumSnapshots)
	for i := range out {
		out[i] = geo.Epoch.Add(time.Duration(i) * s.Scale.SnapshotStep)
	}
	return out
}

// NetworkAt returns the (cached) healthy network snapshot for mode at time t.
// Concurrent callers asking for the same snapshot share one build — and one
// network, whose node arrays the other mode's network of t shares too: it is
// read, never written (Clone it to change it).
func (s *Sim) NetworkAt(t time.Time, mode Mode) *graph.Network {
	return s.NetworkAtCtx(context.Background(), t, mode)
}

// NetworkAtCtx is NetworkAt with the caller's context values — notably a
// telemetry recorder — carried into the snapshot cache, so cache hits,
// singleflight waits and build time are attributed to the run that incurred
// them. Cancellation is deliberately stripped: experiments poll their
// context at snapshot boundaries, and a build, once started, is never
// abandoned (snapcache's contract).
func (s *Sim) NetworkAtCtx(ctx context.Context, t time.Time, mode Mode) *graph.Network {
	n, err := s.snap.Get(context.WithoutCancel(ctx), snapcache.Key{
		Scenario: mode.String(),
		Time:     t,
	})
	if err != nil {
		// The build function cannot fail and the context never cancels,
		// so the only way here is a builder panic the cache converted to
		// an error; re-throw it for the experiment's safe.RecoverTo.
		panic(err)
	}
	return n
}

// NetworkCacheStats snapshots the sim's network-cache counters (hits,
// misses, builds, evictions) — observability for the serving layer and the
// concurrency tests.
func (s *Sim) NetworkCacheStats() snapcache.Stats { return s.snap.Stats() }

// cachedNetworks reports how many snapshots are currently cached (tests).
func (s *Sim) cachedNetworks() int { return s.snap.Len() }

// String summarizes the sim.
func (s *Sim) String() string {
	return fmt.Sprintf("%s/%s: %d sats, %d cities, %d relays, %d pairs, %d snapshots",
		s.Choice, s.Scale.Name, s.Const.Size(), s.Seg.NumCity, s.Seg.NumRelay,
		len(s.Pairs), s.Scale.NumSnapshots)
}
