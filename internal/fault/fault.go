// Package fault provides deterministic, seeded failure scenarios for the
// constellation and ground segment: random and per-plane-correlated
// satellite outages, ground-site (city/relay) failures, ISL laser failures,
// and GSL capacity degradation. A Plan is realized against a constellation
// into an Outages set. Outages.Cut names the links it removes from a resident
// healthy snapshot — a served what-if searches that snapshot with them banned
// — and Outages.Masked materializes the faulted network where capacities are
// read, its nodes shared and its links filtered; either way a what-if repeats
// no propagation or visibility scan and copies no node. The same seed always
// realizes the same outages, making resilience sweeps byte-reproducible.
package fault

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/graph"
	"leosim/internal/telemetry"
)

// Scenario names one failure dimension a resilience sweep varies.
type Scenario string

const (
	// SatOutage fails a fraction of satellites, chosen uniformly.
	SatOutage Scenario = "sat"
	// PlaneOutage fails a fraction of whole orbital planes (correlated
	// failures: a launch-batch defect or a plane-wide software rollout).
	PlaneOutage Scenario = "plane"
	// SiteOutage fails a fraction of ground sites (cities and relays
	// alike: fiber cuts, power loss, weather shutdowns).
	SiteOutage Scenario = "site"
	// ISLOutage fails a fraction of individual ISL lasers (pointing or
	// terminal hardware faults) without killing their satellites.
	ISLOutage Scenario = "isl"
	// GSLDegrade scales every GSL's capacity down by the fraction (rain
	// fade or interference backing off the modulation fleet-wide).
	GSLDegrade Scenario = "gslcap"
)

// Scenarios lists every supported scenario in a fixed order.
func Scenarios() []Scenario {
	return []Scenario{SatOutage, PlaneOutage, SiteOutage, ISLOutage, GSLDegrade}
}

// Valid reports whether s is a known scenario.
func (s Scenario) Valid() bool {
	for _, k := range Scenarios() {
		if s == k {
			return true
		}
	}
	return false
}

// Plan describes a failure scenario before it is tied to a concrete
// constellation. Fractions are in [0,1]; the zero Plan is a no-op.
type Plan struct {
	// Seed drives every random choice; the same seed realizes the same
	// outages for the same constellation and segment sizes.
	Seed int64
	// SatFraction of satellites fail independently at random.
	SatFraction float64
	// PlaneFraction of whole orbital planes fail (correlated outages).
	PlaneFraction float64
	// SiteFraction of ground sites (cities + relays) fail.
	SiteFraction float64
	// ISLFraction of ISL lasers fail.
	ISLFraction float64
	// GSLCapFactor multiplies every surviving GSL's capacity; 0 and 1
	// both mean nominal capacity (so the zero Plan stays a no-op).
	GSLCapFactor float64
}

// ForScenario builds the plan that fails `fraction` of the scenario's
// resource. For GSLDegrade the fraction is the capacity *lost*, i.e. the
// factor applied is 1-fraction.
func ForScenario(sc Scenario, fraction float64, seed int64) (Plan, error) {
	if fraction < 0 || fraction > 1 {
		return Plan{}, fmt.Errorf("fault: fraction %v outside [0,1]", fraction)
	}
	p := Plan{Seed: seed}
	switch sc {
	case SatOutage:
		p.SatFraction = fraction
	case PlaneOutage:
		p.PlaneFraction = fraction
	case SiteOutage:
		p.SiteFraction = fraction
	case ISLOutage:
		p.ISLFraction = fraction
	case GSLDegrade:
		p.GSLCapFactor = 1 - fraction
	default:
		return Plan{}, fmt.Errorf("fault: unknown scenario %q (want one of %v)", sc, Scenarios())
	}
	return p, nil
}

// Validate checks the plan's fractions.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"SatFraction", p.SatFraction},
		{"PlaneFraction", p.PlaneFraction},
		{"SiteFraction", p.SiteFraction},
		{"ISLFraction", p.ISLFraction},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("fault: %s = %v outside [0,1]", f.name, f.v)
		}
	}
	if p.GSLCapFactor < 0 || p.GSLCapFactor > 1 {
		return fmt.Errorf("fault: GSLCapFactor = %v outside [0,1]", p.GSLCapFactor)
	}
	return nil
}

// IsZero reports whether the plan injects no fault at all.
func (p Plan) IsZero() bool {
	return p.SatFraction == 0 && p.PlaneFraction == 0 && p.SiteFraction == 0 &&
		p.ISLFraction == 0 && (p.GSLCapFactor == 0 || p.GSLCapFactor == 1)
}

// Outages is a Plan realized against one constellation and ground segment:
// the concrete set of failed satellites, sites and lasers. Outages persist
// across snapshots — an outage does not heal as satellites move.
type Outages struct {
	// FailedSats holds failed satellite indices (== their node indices,
	// since satellites occupy nodes [0, S) in every snapshot).
	FailedSats map[int32]bool
	// FailedSites holds failed ground-segment terminal indices (cities
	// then relays, matching ground.Segment.Terminals order).
	FailedSites map[int32]bool
	// failedISL keys canonical (min,max) satellite-index pairs of failed
	// lasers.
	failedISL map[int64]bool
	// GSLCapFactor scales surviving GSL capacities (0 and 1 = nominal).
	GSLCapFactor float64
}

func islKey(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(a)<<32 | int64(b)
}

// pickFrac deterministically samples round(frac*n) distinct ints in [0,n).
func pickFrac(rng *rand.Rand, n int, frac float64) []int {
	k := int(frac*float64(n) + 0.5)
	if k > n {
		k = n
	}
	return rng.Perm(n)[:k]
}

// Realize ties the plan to a constellation and a ground segment of
// numTerminals sites (cities + relays). The draw order is fixed —
// satellites, planes, sites, ISLs — so a given (plan, topology) always
// yields the same outages. Lasers are drawn from the set placed at
// construction — every instant's set for a static topology; see RealizeAt.
func (p Plan) Realize(c *constellation.Constellation, numTerminals int) (*Outages, error) {
	return p.realize(c, numTerminals, func() []constellation.ISL { return c.ISLs })
}

// RealizeAt is Realize for a network of instant t: failed lasers are drawn
// from the links that exist at t, so under a topology that re-places its
// lasers per snapshot every masked pair is a link of the healthy network and
// NumFailedISLs counts links that really disappear. The other draws precede
// the laser draw and do not depend on t.
func (p Plan) RealizeAt(c *constellation.Constellation, numTerminals int, t time.Time) (*Outages, error) {
	return p.realize(c, numTerminals, func() []constellation.ISL { return c.ISLsAt(t) })
}

func (p Plan) realize(c *constellation.Constellation, numTerminals int, islsOf func() []constellation.ISL) (*Outages, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sp := telemetry.StartStageSpan(telemetry.StageFaultRealize)
	defer sp.End()
	if c == nil {
		return nil, fmt.Errorf("fault: constellation is required")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	o := &Outages{
		FailedSats:   map[int32]bool{},
		FailedSites:  map[int32]bool{},
		failedISL:    map[int64]bool{},
		GSLCapFactor: p.GSLCapFactor,
	}

	// Independent satellite outages.
	for _, i := range pickFrac(rng, c.Size(), p.SatFraction) {
		o.FailedSats[int32(i)] = true
	}

	// Correlated per-plane outages: enumerate planes in (shell, plane)
	// order, fail a fraction of them wholesale.
	var planeOf [][2]int // (shell, plane) per plane index
	for si, sh := range c.Shells {
		for pl := 0; pl < sh.Planes; pl++ {
			planeOf = append(planeOf, [2]int{si, pl})
		}
	}
	failedPlane := map[[2]int]bool{}
	for _, i := range pickFrac(rng, len(planeOf), p.PlaneFraction) {
		failedPlane[planeOf[i]] = true
	}
	if len(failedPlane) > 0 {
		for _, sat := range c.Sats {
			if failedPlane[[2]int{sat.ShellIndex, sat.Plane}] {
				o.FailedSats[int32(sat.Index)] = true
			}
		}
	}

	// Ground-site outages.
	for _, i := range pickFrac(rng, numTerminals, p.SiteFraction) {
		o.FailedSites[int32(i)] = true
	}

	// ISL laser outages. A plan that fails none never asks which lasers exist
	// (an epoch-aware placement can cost seconds).
	var isls []constellation.ISL
	if p.ISLFraction > 0 {
		isls = islsOf()
	}
	for _, i := range pickFrac(rng, len(isls), p.ISLFraction) {
		l := isls[i]
		o.failedISL[islKey(int32(l.A), int32(l.B))] = true
	}
	return o, nil
}

// IsZero reports whether the outages mask nothing.
func (o *Outages) IsZero() bool {
	return o == nil || (len(o.FailedSats) == 0 && len(o.FailedSites) == 0 &&
		len(o.failedISL) == 0 && (o.GSLCapFactor == 0 || o.GSLCapFactor == 1))
}

// NumFailedSats returns the failed-satellite count (random + plane).
func (o *Outages) NumFailedSats() int { return len(o.FailedSats) }

// NumFailedSites returns the failed ground-site count.
func (o *Outages) NumFailedSites() int { return len(o.FailedSites) }

// NumFailedISLs returns the failed laser count.
func (o *Outages) NumFailedISLs() int { return len(o.failedISL) }

// ISLFailed reports whether the laser between satellites a and b failed.
func (o *Outages) ISLFailed(a, b int32) bool {
	return o != nil && o.failedISL[islKey(a, b)]
}

// Cut returns the links of healthy the outages remove — every GSL and ISL of a
// failed satellite or ground site, and every failed laser; fibre stays — as
// sorted link ids. It is the one definition of what a mask removes: searched
// with the cut banned, healthy is the masked network (graph.View), and Masked
// materializes it. The links are read off healthy's CSR, so beyond one bit
// per link the cost scales with the failures, not the network. Satellites are
// nodes [0, NumSat) and terminal i is node NumSat+i; aircraft follow the
// segment terminals and are not subject to site outages. A nil Outages cuts
// nothing.
func (o *Outages) Cut(healthy *graph.Network) graph.Cut {
	if o == nil {
		return nil
	}
	// One bit per link of healthy: a link between two dead nodes, or a failed
	// laser of a dead satellite, is marked twice and listed once, and reading
	// the bits out in order sorts the cut.
	marked := make([]uint64, (len(healthy.Links)+63)/64)
	mark := func(li int32) { marked[li>>6] |= 1 << (li & 63) }
	dead := func(v int32) {
		for _, e := range healthy.Edges(v) {
			if healthy.Links[e.Link].Kind != graph.LinkFiber {
				mark(e.Link)
			}
		}
	}
	for sat := range o.FailedSats {
		if int(sat) < healthy.NumSat {
			dead(sat)
		}
	}
	for site := range o.FailedSites {
		if v := healthy.NumSat + int(site); v < healthy.N() {
			dead(int32(v))
		}
	}
	for key := range o.failedISL {
		a, b := int32(key>>32), int32(key)
		if int(b) >= healthy.NumSat {
			continue
		}
		for _, e := range healthy.Edges(a) {
			if e.To == b && healthy.Links[e.Link].Kind == graph.LinkISL {
				mark(e.Link)
			}
		}
	}
	var cut graph.Cut
	for w, word := range marked {
		for ; word != 0; word &= word - 1 {
			cut = append(cut, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return cut
}

// Masked materializes the network Cut describes, for readers of link
// capacities (the flow sweeps): healthy's links minus the cut, in order and
// densely re-indexed, with surviving GSL capacities scaled by GSLCapFactor.
// The result shares healthy's node arrays and owns its link list and CSR — no
// node is copied and healthy is only read, so concurrent readers of it are
// undisturbed. Satellites keep their nodes (they still exist, just dark), so
// node indexing — and with it the per-snapshot layout every experiment
// assumes — is unchanged. A nil or zero Outages returns healthy itself, which
// keeps the 0%-failure sweep point byte-identical to the healthy baseline.
func (o *Outages) Masked(healthy *graph.Network) *graph.Network {
	if o.IsZero() {
		return healthy
	}
	cut := o.Cut(healthy)
	factor := o.GSLCapFactor
	if factor == 0 {
		factor = 1
	}
	links := make([]graph.Link, 0, len(healthy.Links)-len(cut))
	for li, l := range healthy.Links {
		if len(cut) > 0 && cut[0] == int32(li) {
			cut = cut[1:]
			continue
		}
		if l.Kind == graph.LinkGSL {
			l.CapGbps *= factor
		}
		links = append(links, l)
	}
	return healthy.WithLinks(links)
}
