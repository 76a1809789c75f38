package check

import (
	"testing"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/geo"
	"leosim/internal/topo"
)

// TestMotifISLBounds holds every topology motif to the per-relation
// closed-form ISL length bounds, densely over time, on a delta + star
// two-shell constellation. The bounds derivation never assumed the +Grid
// link set — only the (ΔΩ, Δu) relation of a pair — so diagonal offsets,
// ladder rings, nearest-neighbour matchings and demand-aware express links
// must all stay inside the same analytic envelope. Epoch-aware motifs are
// re-placed at every sampled instant, so the links checked are the ones the
// motif would actually fly at that time.
func TestMotifISLBounds(t *testing.T) {
	shells := []constellation.Shell{constellation.TestShell(), constellation.PolarShell()}
	for _, id := range topo.IDs() {
		m, err := topo.Build(id, topo.Config{})
		if err != nil {
			t.Fatalf("%s: build: %v", id, err)
		}
		c, err := constellation.New(shells, topo.Option(m))
		if err != nil {
			t.Fatalf("%s: constellation: %v", id, err)
		}
		geom := NewGeometry(c)
		for k := 0; k < 12; k++ {
			at := geo.Epoch.Add(time.Duration(k) * 11 * time.Minute)
			links := c.ISLsAt(at)
			if len(links) == 0 {
				t.Fatalf("%s: no links at t%d", id, k)
			}
			snap := c.SnapshotAt(at)
			for _, l := range links {
				sa, sb := c.Sats[l.A], c.Sats[l.B]
				if sa.ShellIndex != sb.ShellIndex {
					t.Fatalf("%s: cross-shell ISL %v", id, l)
				}
				lo, hi := geom.islBoundsFor(sa.ShellIndex, sb.Plane-sa.Plane, sb.Slot-sa.Slot)
				d := snap.Pos[l.A].Distance(snap.Pos[l.B])
				if d < lo-geom.ISLSlackKm || d > hi+geom.ISLSlackKm {
					t.Errorf("%s: ISL %d-%d at t%d: length %.6f outside [%.6f,%.6f]",
						id, l.A, l.B, k, d, lo, hi)
				}
			}
		}
	}
}
