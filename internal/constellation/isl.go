package constellation

import (
	"math"
	"time"

	"leosim/internal/geo"
)

// ISL is a static point-to-point laser link between two satellites,
// identified by constellation-wide indices with A < B.
type ISL struct {
	A, B int
}

// PlusGridISLs builds the standard +Grid ISL topology (§2): each satellite
// links to its two neighbours in the same orbit and to the satellite in the
// same slot of each adjacent plane, yielding 4 ISLs per satellite. Links are
// intra-shell only.
//
// Seam handling distinguishes Walker deltas from Walker stars:
//
//   - A Walker-delta shell (RAANSpreadDeg == 360, e.g. Starlink/Kuiper)
//     spreads its planes over the full RAAN circle, so plane P−1 and plane 0
//     are as adjacent as any interior pair and the plane ring closes with a
//     wrap link. Wrapping the ring accumulates a mean-anomaly shift of
//     exactly WalkerF slot spacings, so the wrap connects slot j of the last
//     plane to slot j+WalkerF of plane 0, keeping seam links as short as
//     interior ones. omitSeam (WithoutSeamISLs) drops this wrap — the
//     ablation modelling operators that leave the delta ring open.
//
//   - A Walker-star shell (RAANSpreadDeg < 360, e.g. polar shells at 180°)
//     has a physical seam: the first and last planes are co-located in RAAN
//     but ascending on opposite sides of the Earth, so satellites there
//     counter-rotate and a laser link could not track. The wrap is never
//     generated for star shells, regardless of omitSeam.
//
// The generation order (plane-major, slot-minor, intra-plane before
// cross-plane) is part of the contract: graph building appends ISLs in this
// order, and the topo regression suite pins the exact byte sequence.
func PlusGridISLs(c *Constellation, omitSeam bool) []ISL {
	return GridISLs(c, 0, omitSeam)
}

// GridISLs is the +Grid with every cross-plane link sheared by slotShift
// slots: satellite (plane p, slot j) links to (p+1, j+slotShift). Zero is the
// +Grid itself; degree, link count, generation order and seam handling are
// the +Grid's at every shift.
func GridISLs(c *Constellation, slotShift int, omitSeam bool) []ISL {
	var isls []ISL
	for si, sh := range c.Shells {
		for plane := 0; plane < sh.Planes; plane++ {
			for slot := 0; slot < sh.SatsPerPlane; slot++ {
				a := c.SatIndex(si, plane, slot)
				// Intra-plane: successor in the same orbit (ring).
				if sh.SatsPerPlane > 1 {
					b := c.SatIndex(si, plane, (slot+1)%sh.SatsPerPlane)
					if a != b {
						isls = append(isls, OrderISL(a, b))
					}
				}
				// Cross-plane: same slot (plus the shear), next plane (ring
				// over planes).
				if sh.Planes > 1 {
					next := plane + 1
					shift := slotShift
					if next == sh.Planes {
						// Star shells never close the plane ring (the seam
						// planes counter-rotate); delta shells do unless the
						// seam ablation asked otherwise.
						if omitSeam || sh.RAANSpreadDeg < 360 {
							continue
						}
						next = 0
						// Wrapping the plane ring accumulates a
						// mean-anomaly shift of exactly WalkerF slot
						// spacings; connect to the slot that absorbs it
						// so seam links stay as short as interior ones.
						shift += sh.WalkerF
					}
					tgtSlot := ((slot+shift)%sh.SatsPerPlane + sh.SatsPerPlane) % sh.SatsPerPlane
					b := c.SatIndex(si, next, tgtSlot)
					if a != b {
						isls = append(isls, OrderISL(a, b))
					}
				}
			}
		}
	}
	return DedupISLs(isls)
}

// OrderISL returns the canonical representation of an ISL between satellites
// a and b: endpoints ordered so A < B.
func OrderISL(a, b int) ISL {
	if a > b {
		a, b = b, a
	}
	return ISL{A: a, B: b}
}

// DedupISLs removes duplicate links in place, keeping first occurrences in
// their original order (links must already be OrderISL-canonical for
// duplicates to be recognized).
func DedupISLs(in []ISL) []ISL {
	seen := make(map[ISL]struct{}, len(in))
	out := in[:0]
	for _, l := range in {
		if _, ok := seen[l]; ok {
			continue
		}
		seen[l] = struct{}{}
		out = append(out, l)
	}
	return out
}

// ISLLengthKm returns the instantaneous length of ISL l at snapshot s.
func ISLLengthKm(s Snapshot, l ISL) float64 {
	return s.Pos[l.A].Distance(s.Pos[l.B])
}

// ISLMinAltitudeKm returns the minimum altitude above the (spherical) Earth
// surface reached by the straight-line link l at snapshot s. ISLs must stay
// above the lower atmosphere (~80 km, §2) to be unaffected by weather.
func ISLMinAltitudeKm(s Snapshot, l ISL) float64 {
	return geo.SegmentMinAltitudeKm(s.Pos[l.A], s.Pos[l.B])
}

// ISLStats summarizes the geometry of a constellation's ISLs at an instant.
type ISLStats struct {
	Count                  int
	MinKm, MaxKm, MeanKm   float64
	MinLinkAltitudeKm      float64
	LinksBelowAtmosphereKm int // links dipping below 80 km
}

// StatsAt computes geometry statistics of the ISLs that exist at t.
func (c *Constellation) StatsAt(t time.Time) ISLStats {
	s := c.SnapshotAt(t)
	isls := c.ISLsAt(t)
	st := ISLStats{MinKm: math.Inf(1), MinLinkAltitudeKm: math.Inf(1)}
	var sum float64
	for _, l := range isls {
		d := ISLLengthKm(s, l)
		sum += d
		st.MinKm = math.Min(st.MinKm, d)
		st.MaxKm = math.Max(st.MaxKm, d)
		alt := ISLMinAltitudeKm(s, l)
		st.MinLinkAltitudeKm = math.Min(st.MinLinkAltitudeKm, alt)
		if alt < 80 {
			st.LinksBelowAtmosphereKm++
		}
	}
	st.Count = len(isls)
	if st.Count > 0 {
		st.MeanKm = sum / float64(st.Count)
	} else {
		st.MinKm, st.MinLinkAltitudeKm = 0, 0
	}
	return st
}
