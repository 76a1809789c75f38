// Package topo is the ISL topology design lab: pluggable link-placement
// strategies ("motifs") for the constellation, decoupled from the rest of the
// simulator through constellation.WithISLTopology. The paper fixes its Hybrid
// design to the +Grid motif; this package multiplies the scenario space with
// the inter-plane connectivity patterns of arXiv:2005.07965 (diagonal grids,
// nearest-neighbour matchings) and the demand-aware placement of Starfield
// (arXiv:2601.10083), which concentrates a fixed ISL budget where the Zipf
// city demand actually flows.
package topo

import (
	"fmt"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/ground"
)

// Motif is a link-placement strategy: given a fully propagated constellation
// it returns the ISL set. Implementations must return links that are
// OrderISL-canonical (A < B), duplicate-free and intra-shell — the invariants
// the rest of the simulator (graph building, the checker) assumes and the
// motif test suite enforces for every registered motif.
type Motif interface {
	Links(c *constellation.Constellation) []constellation.ISL
}

// EpochAware marks motifs whose link set depends on the instantaneous
// geometry (nearest-neighbour matchings, demand-aware placement). LinksAt
// returns the set for time t; plain Links places the motif at the
// constellation epoch (geo.Epoch). Through Option, every snapshot build of a
// constellation carrying such a motif re-places it for the build instant
// (Constellation.ISLsAt); only a seconds-scale cursor (core's Walker) holds
// the set it anchored with, since re-pointing lasers is a snapshot-scale
// operation.
type EpochAware interface {
	Motif
	LinksAt(c *constellation.Constellation, t time.Time) []constellation.ISL
}

// ID enumerates the built-in motifs.
type ID uint8

const (
	// PlusGrid is the paper's §2 baseline: intra-plane ring + same-slot
	// cross-plane links, 4 ISLs/sat.
	PlusGrid ID = iota
	// DiagGrid shifts every cross-plane link by a fixed slot offset,
	// trading the +Grid's zigzag for diagonal progress (arXiv:2005.07965).
	DiagGrid
	// Ladder keeps only the intra-plane rings — 2 ISLs/sat, modelling
	// cheaper buses with a single pair of along-track terminals.
	Ladder
	// Nearest greedily matches each plane pair by instantaneous distance,
	// recomputed per snapshot epoch (arXiv:2005.07965).
	Nearest
	// Demand places a fixed cross-plane ISL budget along the gravity
	// demand implied by the Zipf city populations (arXiv:2601.10083).
	Demand
)

// IDs lists every built-in motif in display order.
func IDs() []ID { return []ID{PlusGrid, DiagGrid, Ladder, Nearest, Demand} }

// idNames is the single source of truth for motif naming; String,
// MarshalText and UnmarshalText all read it, so JSON envelopes and CLI flags
// agree byte-for-byte.
var idNames = [...]string{
	PlusGrid: "plus-grid",
	DiagGrid: "diag-grid",
	Ladder:   "ladder",
	Nearest:  "nearest",
	Demand:   "demand",
}

// String implements fmt.Stringer.
func (id ID) String() string {
	if int(id) < len(idNames) {
		return idNames[id]
	}
	return fmt.Sprintf("motif(%d)", uint8(id))
}

// MarshalText renders the motif name so ID-keyed maps and structs serialize
// to JSON as "plus-grid" rather than raw ints (mirroring core.Mode).
func (id ID) MarshalText() ([]byte, error) {
	if int(id) >= len(idNames) {
		return nil, fmt.Errorf("topo: unknown motif id %d", uint8(id))
	}
	return []byte(idNames[id]), nil
}

// UnmarshalText accepts the names produced by MarshalText.
func (id *ID) UnmarshalText(b []byte) error {
	p, err := ParseID(string(b))
	if err != nil {
		return err
	}
	*id = p
	return nil
}

// ParseID resolves a motif name as used on CLI flags and in JSON envelopes.
func ParseID(s string) (ID, error) {
	for i, n := range idNames {
		if n == s {
			return ID(i), nil
		}
	}
	return 0, fmt.Errorf("topo: unknown motif %q (want one of %v)", s, idNames[:])
}

// Config carries what a motif needs besides the constellation; the zero
// value works for every motif.
type Config struct {
	// Cities is the demand model for the demand motif: gravity corridors
	// are drawn between the most populous entries. Nil loads a default
	// deterministic set (ground.Cities(100)); the topo sweep passes the
	// sim's own city set so placement and evaluation share one demand
	// model.
	Cities []ground.City
}

// Build constructs motif id with configuration cfg.
func Build(id ID, cfg Config) (Motif, error) {
	switch id {
	case PlusGrid:
		return plusGridMotif{}, nil
	case DiagGrid:
		return diagGridMotif{}, nil
	case Ladder:
		return ladderMotif{}, nil
	case Nearest:
		return nearestMotif{}, nil
	case Demand:
		cities := cfg.Cities
		if cities == nil {
			var err error
			cities, err = ground.Cities(defaultDemandCities)
			if err != nil {
				return nil, err
			}
		}
		return newDemandMotif(cities), nil
	default:
		return nil, fmt.Errorf("topo: unknown motif id %d", uint8(id))
	}
}

// MustBuild is Build for motifs whose construction cannot fail given a valid
// id; it panics otherwise (tests, examples).
func MustBuild(id ID, cfg Config) Motif {
	m, err := Build(id, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Option adapts a motif to a constellation construction option; epoch-aware
// motifs also hand over LinksAt, so Constellation.ISLsAt re-places them.
func Option(m Motif) constellation.Option {
	var at func(*constellation.Constellation, time.Time) []constellation.ISL
	if ea, ok := m.(EpochAware); ok {
		at = ea.LinksAt
	}
	return constellation.WithISLTopology(m.Links, at)
}

// planeRing appends each shell's intra-plane rings — the backbone every
// motif shares: successive slots of one orbit are the cheapest, most stable
// links a satellite can hold.
func planeRing(c *constellation.Constellation, isls []constellation.ISL) []constellation.ISL {
	for si, sh := range c.Shells {
		if sh.SatsPerPlane <= 1 {
			continue
		}
		for plane := 0; plane < sh.Planes; plane++ {
			for slot := 0; slot < sh.SatsPerPlane; slot++ {
				a := c.SatIndex(si, plane, slot)
				b := c.SatIndex(si, plane, (slot+1)%sh.SatsPerPlane)
				if a != b {
					isls = append(isls, constellation.OrderISL(a, b))
				}
			}
		}
	}
	return isls
}

// wrapsSeam reports whether shell sh closes its plane ring: Walker deltas
// (RAANSpreadDeg == 360) do, Walker stars never do — their first and last
// planes counter-rotate across the physical seam (see
// constellation.PlusGridISLs).
func wrapsSeam(sh constellation.Shell) bool { return sh.RAANSpreadDeg >= 360 }
