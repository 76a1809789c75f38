// Package core implements the paper's contribution: the comparison of
// bent-pipe (BP) and hybrid (BP+ISL) connectivity for LEO mega-constellations
// across latency and its variability (§4), network-wide throughput (§5), and
// resilience to weather (§6), plus the quantified extensions of §7–§8.
package core

import (
	"fmt"
	"time"

	"leosim/internal/constellation"
)

// Mode selects the connectivity model under test.
type Mode uint8

const (
	// BP is bent-pipe-only connectivity: every path bounces between
	// satellites and ground terminals; no ISLs.
	BP Mode = iota
	// Hybrid adds +Grid laser ISLs to BP connectivity.
	Hybrid
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == BP {
		return "bp"
	}
	return "hybrid"
}

// MarshalText renders the mode name so Mode-keyed maps serialize to JSON
// as "bp"/"hybrid" rather than raw ints.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText accepts the names produced by MarshalText.
func (m *Mode) UnmarshalText(b []byte) error {
	mode, err := ParseMode(string(b))
	if err == nil {
		*m = mode
	}
	return err
}

// ParseMode is the one mode-name parser: it accepts the names String
// produces and, for those, allocates nothing.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "bp":
		return BP, nil
	case "hybrid":
		return Hybrid, nil
	}
	return 0, fmt.Errorf("core: unknown mode %q (want bp or hybrid)", name)
}

// Scale bundles the experiment sizing knobs so tests, benchmarks and the
// full paper-scale CLI runs share every code path and differ only in size.
type Scale struct {
	Name string
	// NumCities is the number of traffic source/sink cities (paper: 1000).
	NumCities int
	// NumPairs is the number of sampled city pairs (paper: 5000).
	NumPairs int
	// MinPairKm is the minimum geodesic separation of a pair (paper:
	// 2000 km — closer pairs are served terrestrially).
	MinPairKm float64
	// RelaySpacingDeg is the transit-relay grid spacing (paper: 0.5°);
	// zero disables grid relays.
	RelaySpacingDeg float64
	// RelayMaxKm is the maximum relay distance from a city (paper: 2000).
	RelayMaxKm float64
	// AircraftDensity scales the synthetic flight schedule (1 = full).
	AircraftDensity float64
	// SnapshotStep and NumSnapshots define the simulated day (paper:
	// 15 min × 96).
	SnapshotStep time.Duration
	// NumSnapshots counts snapshots.
	NumSnapshots int
	// Seed drives pair sampling.
	Seed int64
}

// FullScale reproduces the paper's experiment sizing.
func FullScale() Scale {
	return Scale{
		Name:            "full",
		NumCities:       1000,
		NumPairs:        5000,
		MinPairKm:       2000,
		RelaySpacingDeg: 0.5,
		RelayMaxKm:      2000,
		AircraftDensity: 1,
		SnapshotStep:    15 * time.Minute,
		NumSnapshots:    96,
		Seed:            1,
	}
}

// LargeScale approaches the paper's contention level (more pairs sharing
// links) while staying tractable on a single core: minutes per experiment.
func LargeScale() Scale {
	return Scale{
		Name:            "large",
		NumCities:       400,
		NumPairs:        1200,
		MinPairKm:       2000,
		RelaySpacingDeg: 1.0,
		RelayMaxKm:      2000,
		AircraftDensity: 1,
		SnapshotStep:    30 * time.Minute,
		NumSnapshots:    24,
		Seed:            1,
	}
}

// ReducedScale runs the same pipeline in tens of seconds on a laptop.
func ReducedScale() Scale {
	return Scale{
		Name:            "reduced",
		NumCities:       150,
		NumPairs:        250,
		MinPairKm:       2000,
		RelaySpacingDeg: 2.5,
		RelayMaxKm:      2000,
		AircraftDensity: 0.5,
		SnapshotStep:    time.Hour,
		NumSnapshots:    12,
		Seed:            1,
	}
}

// TinyScale keeps unit tests fast.
func TinyScale() Scale {
	return Scale{
		Name:            "tiny",
		NumCities:       60,
		NumPairs:        60,
		MinPairKm:       2000,
		RelaySpacingDeg: 5,
		RelayMaxKm:      1500,
		AircraftDensity: 0.3,
		SnapshotStep:    2 * time.Hour,
		NumSnapshots:    4,
		Seed:            1,
	}
}

// Validate checks scale parameters.
func (s Scale) Validate() error {
	if s.NumCities < 2 {
		return fmt.Errorf("core: need ≥ 2 cities, got %d", s.NumCities)
	}
	if s.NumPairs < 1 {
		return fmt.Errorf("core: need ≥ 1 pair, got %d", s.NumPairs)
	}
	if s.SnapshotStep <= 0 {
		return fmt.Errorf("core: SnapshotStep must be positive, got %v", s.SnapshotStep)
	}
	if s.NumSnapshots < 1 {
		return fmt.Errorf("core: NumSnapshots must be ≥ 1, got %d", s.NumSnapshots)
	}
	// A schedule longer than a simulated week is almost certainly a unit
	// mistake (e.g. seconds where a Duration was meant): the experiments
	// model one day, and the constellation's ~95-minute orbits make longer
	// sweeps pure repetition.
	if span := time.Duration(s.NumSnapshots-1) * s.SnapshotStep; span > 7*24*time.Hour {
		return fmt.Errorf("core: snapshot schedule spans %v (%d × %v) — more than a simulated week; check SnapshotStep units",
			span, s.NumSnapshots, s.SnapshotStep)
	}
	if s.MinPairKm < 0 || s.AircraftDensity < 0 {
		return fmt.Errorf("core: negative scale parameter")
	}
	return nil
}

// ConstellationChoice selects which shell preset an experiment runs on.
type ConstellationChoice uint8

const (
	// Starlink is the 72×22 / 550 km / 53° phase-1 shell.
	Starlink ConstellationChoice = iota
	// Kuiper is the 34×34 / 630 km / 51.9° phase-1 shell.
	Kuiper
)

// String implements fmt.Stringer.
func (c ConstellationChoice) String() string {
	if c == Starlink {
		return "starlink"
	}
	return "kuiper"
}

// MarshalText renders the constellation name, so results that carry their
// constellation serialize it as "starlink"/"kuiper" rather than a raw int.
func (c ConstellationChoice) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// Shell returns the preset shell for the choice.
func (c ConstellationChoice) Shell() constellation.Shell {
	if c == Starlink {
		return constellation.StarlinkPhase1()
	}
	return constellation.KuiperPhase1()
}

// Band is a frequency plan for the weather experiments.
type Band struct {
	// Name labels the band in reports.
	Name string
	// UpGHz is the GT→satellite carrier frequency.
	UpGHz float64
	// DownGHz is the satellite→GT carrier frequency.
	DownGHz float64
}

// Frequency plans for §6.
var (
	// KuBand uses the Ku frequencies from Starlink's FCC filing
	// (14.25 GHz up, 11.7 GHz down) — the paper's §6 setting.
	KuBand = Band{Name: "ku", UpGHz: 14.25, DownGHz: 11.7}
	// KaBand is the gateway band §6 flags as more weather-affected
	// (typical 28.5 GHz up, 18.5 GHz down).
	KaBand = Band{Name: "ka", UpGHz: 28.5, DownGHz: 18.5}
)
