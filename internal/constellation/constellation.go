package constellation

import (
	"fmt"
	"time"

	"leosim/internal/geo"
	"leosim/internal/orbit"
	"leosim/internal/safe"
)

// Constellation is one or more orbital shells with per-satellite propagators
// and an ISL topology.
type Constellation struct {
	Shells []Shell
	Sats   []Satellite
	// ISLs is the list of inter-satellite links placed at construction,
	// empty for BP-only operation. Indices refer to Sats. Nothing writes it
	// after New returns; ISLsAt answers which links exist at an instant.
	ISLs []ISL

	// islsAt, when non-nil, re-places the links for an instant (topologies
	// whose link set follows the geometry); nil means ISLs holds at all times.
	islsAt func(*Constellation, time.Time) []ISL

	// shellOffset[i] is the index in Sats of the first satellite of shell i.
	shellOffset []int
}

// Option configures constellation construction.
type Option func(*config)

type config struct {
	isls       bool
	omitSeam   bool
	sgp4       bool
	islBuilder func(*Constellation) []ISL
	islsAt     func(*Constellation, time.Time) []ISL
}

// WithISLs enables generation of the +Grid ISL topology for every shell.
// Cross-shell ISLs are never generated (§8: Starlink's four ISLs per
// satellite are all used within a shell).
func WithISLs() Option { return func(c *config) { c.isls = true } }

// WithISLTopology replaces the default +Grid generator with a custom one: the
// builder receives the fully propagated constellation (satellites, shells,
// indices) and returns the ISL set, which must be OrderISL-canonical,
// duplicate-free and intra-shell. A non-nil at marks a topology whose link
// set depends on the instant: ISLsAt then calls it (it must be a pure
// function of positions) instead of returning the set build placed. Implies
// WithISLs. The topology lab (internal/topo) threads its pluggable motifs
// through here.
func WithISLTopology(build func(*Constellation) []ISL, at func(*Constellation, time.Time) []ISL) Option {
	return func(c *config) {
		c.isls = true
		c.islBuilder = build
		c.islsAt = at
	}
}

// WithoutSeamISLs omits the cross-plane wrap links between the last and
// first plane of each Walker-delta (RAANSpreadDeg == 360) shell, leaving the
// plane ring open at an arbitrary point — the ablation for operators that
// skip those links. Walker-star shells (RAANSpreadDeg < 360) have a physical
// seam — their first and last planes counter-rotate — so they never get wrap
// links, with or without this option (see PlusGridISLs for the geometry).
func WithoutSeamISLs() Option { return func(c *config) { c.omitSeam = true } }

// WithSGP4 propagates satellites with the SGP4 propagator initialized from
// generated TLEs instead of the J2-secular Kepler propagator. Slower; used
// by the propagator ablation.
func WithSGP4() Option { return func(c *config) { c.sgp4 = true } }

// New builds a constellation from the given shells.
func New(shells []Shell, opts ...Option) (*Constellation, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if len(shells) == 0 {
		return nil, fmt.Errorf("constellation: no shells")
	}
	c := &Constellation{Shells: shells}
	for si, sh := range shells {
		if err := sh.Validate(); err != nil {
			return nil, err
		}
		c.shellOffset = append(c.shellOffset, len(c.Sats))
		for plane := 0; plane < sh.Planes; plane++ {
			for slot := 0; slot < sh.SatsPerPlane; slot++ {
				el := sh.elements(plane, slot, geo.Epoch)
				var prop orbit.Propagator
				if cfg.sgp4 {
					p, err := sgp4For(el, geo.Epoch)
					if err != nil {
						return nil, err
					}
					prop = p
				} else {
					prop = orbit.NewKepler(el)
				}
				c.Sats = append(c.Sats, Satellite{
					Index:      len(c.Sats),
					ShellIndex: si,
					Plane:      plane,
					Slot:       slot,
					Prop:       prop,
				})
			}
		}
	}
	if cfg.isls {
		if cfg.islBuilder != nil {
			c.ISLs = cfg.islBuilder(c)
			c.islsAt = cfg.islsAt
		} else {
			c.ISLs = PlusGridISLs(c, cfg.omitSeam)
		}
	}
	return c, nil
}

// ISLsAt returns the inter-satellite links that exist at time t: the set
// placed at construction for static topologies (the very slice ISLs holds),
// a fresh placement for time-dependent ones. It is the one place the ISL set
// of an instant is decided; every snapshot build reads it.
func (c *Constellation) ISLsAt(t time.Time) []ISL {
	if c.islsAt == nil {
		return c.ISLs
	}
	return c.islsAt(c, t)
}

// Analytic reports whether every satellite uses the analytic (J2-secular
// Kepler) propagator, under which circular-orbit radii are exact and the
// invariant checker can hold ISL geometry to closed-form values. SGP4
// constellations get looser tolerance bounds instead.
func (c *Constellation) Analytic() bool {
	for _, s := range c.Sats {
		if _, ok := s.Prop.(*orbit.KeplerPropagator); !ok {
			return false
		}
	}
	return true
}

func sgp4For(el orbit.Elements, epoch time.Time) (*orbit.SGP4, error) {
	n := 86400 / (2 * 3.141592653589793) * el.MeanMotion()
	tle := orbit.TLE{
		SatNum:         1,
		Epoch:          epoch,
		InclinationDeg: el.InclinationRad * geo.Rad,
		RAANDeg:        el.RAANRad * geo.Rad,
		Eccentricity:   0.0001,
		ArgPerigeeDeg:  el.ArgPerigeeRad * geo.Rad,
		MeanAnomalyDeg: el.MeanAnomalyRad * geo.Rad,
		MeanMotion:     n,
	}
	return orbit.NewSGP4(tle)
}

// Size returns the total satellite count.
func (c *Constellation) Size() int { return len(c.Sats) }

// SatIndex returns the constellation-wide index of (shell, plane, slot).
func (c *Constellation) SatIndex(shell, plane, slot int) int {
	sh := c.Shells[shell]
	return c.shellOffset[shell] + plane*sh.SatsPerPlane + slot
}

// ShellOf returns the shell parameters of satellite i.
func (c *Constellation) ShellOf(i int) Shell {
	return c.Shells[c.Sats[i].ShellIndex]
}

// PositionsECEF returns the ECEF position of every satellite at time t, in
// satellite-index order. Computation is parallelized across cores.
func (c *Constellation) PositionsECEF(t time.Time) []geo.Vec3 {
	return c.PositionsECEFInto(t, nil)
}

// PositionsECEFInto is PositionsECEF writing into dst when its capacity
// suffices, so a caller timing or repeating propagation can reuse one buffer.
// The filled slice is returned; it aliases dst unless dst was too small.
// Every fleet, Kepler or SGP4, takes the same path: each satellite's
// PositionECI, rotated into the Earth frame by one GMST angle per instant.
func (c *Constellation) PositionsECEFInto(t time.Time, dst []geo.Vec3) []geo.Vec3 {
	if cap(dst) < len(c.Sats) {
		dst = make([]geo.Vec3, len(c.Sats))
	}
	dst = dst[:len(c.Sats)]
	theta := -geo.GMST(t)
	safe.Chunks(len(c.Sats), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = geo.RotateZ(c.Sats[i].Prop.PositionECI(t), theta)
		}
	})
	return dst
}

// Snapshot bundles satellite positions at one instant.
type Snapshot struct {
	Time time.Time
	// ECEF position per satellite, same order as Constellation.Sats.
	Pos []geo.Vec3
}

// SnapshotAt computes a position snapshot at time t.
func (c *Constellation) SnapshotAt(t time.Time) Snapshot {
	return Snapshot{Time: t, Pos: c.PositionsECEF(t)}
}
