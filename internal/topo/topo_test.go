package topo

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/geo"
)

// sortedHash fingerprints an ISL set independent of generation order: links
// are sorted by (A, B) and FNV-1a-hashed as 8 little-endian bytes of A then
// B each.
func sortedHash(isls []constellation.ISL) (int, uint64) {
	s := make([]constellation.ISL, len(isls))
	copy(s, isls)
	sort.Slice(s, func(i, j int) bool {
		if s[i].A != s[j].A {
			return s[i].A < s[j].A
		}
		return s[i].B < s[j].B
	})
	h := fnv.New64a()
	var buf [8]byte
	for _, l := range s {
		binary.LittleEndian.PutUint64(buf[:], uint64(l.A))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(l.B))
		h.Write(buf[:])
	}
	return len(s), h.Sum64()
}

// The plus-grid motif must reproduce the exact pre-refactor ISL set: these
// counts and hashes were computed from the hardwired plusGrid generator
// before it was exported behind the Motif interface. Any drift here means
// the refactor changed published results.
func TestPlusGridByteIdenticalToPreRefactor(t *testing.T) {
	for _, tc := range []struct {
		shell constellation.Shell
		count int
		hash  uint64
	}{
		{constellation.StarlinkPhase1(), 3168, 0xeeb0f639e728a6bd},
		{constellation.KuiperPhase1(), 2312, 0x9e52d69934666171},
	} {
		c, err := constellation.New([]constellation.Shell{tc.shell}, Option(MustBuild(PlusGrid, Config{})))
		if err != nil {
			t.Fatal(err)
		}
		n, h := sortedHash(c.ISLs)
		if n != tc.count || h != tc.hash {
			t.Errorf("%s: plus-grid motif gives %d links hash %#x, pre-refactor set was %d links hash %#x",
				tc.shell.Name, n, h, tc.count, tc.hash)
		}
		// The motif must also match the default generator path (WithISLs),
		// byte for byte including generation order.
		def, err := constellation.New([]constellation.Shell{tc.shell}, constellation.WithISLs())
		if err != nil {
			t.Fatal(err)
		}
		if len(def.ISLs) != len(c.ISLs) {
			t.Fatalf("%s: motif %d links, default generator %d", tc.shell.Name, len(c.ISLs), len(def.ISLs))
		}
		for i := range def.ISLs {
			if def.ISLs[i] != c.ISLs[i] {
				t.Fatalf("%s: link %d differs: motif %v, default %v", tc.shell.Name, i, c.ISLs[i], def.ISLs[i])
			}
		}
	}
}

// testConst builds a two-shell constellation (delta + star) — the hardest
// case for intra-shell and seam invariants.
func testConst(t *testing.T, opts ...constellation.Option) *constellation.Constellation {
	t.Helper()
	c, err := constellation.New(
		[]constellation.Shell{constellation.TestShell(), constellation.PolarShell()}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// maxDegree is the per-motif ISL-per-satellite bound the invariant test
// holds each implementation to.
func maxDegree(id ID) int {
	switch id {
	case Ladder:
		return 2
	case Demand:
		return 2 + demandInterCap
	default: // plus-grid, diag-grid, nearest: ring + one link per plane side
		return 4
	}
}

func TestMotifInvariants(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			m, err := Build(id, Config{})
			if err != nil {
				t.Fatal(err)
			}
			c := testConst(t, Option(m))
			if len(c.ISLs) == 0 {
				t.Fatal("motif produced no links")
			}
			deg := make(map[int]int)
			seen := make(map[constellation.ISL]bool, len(c.ISLs))
			for _, l := range c.ISLs {
				if l.A >= l.B {
					t.Fatalf("link %v not canonical (want A < B)", l)
				}
				if l.A < 0 || l.B >= c.Size() {
					t.Fatalf("link %v out of range", l)
				}
				if seen[l] {
					t.Fatalf("duplicate link %v", l)
				}
				seen[l] = true
				if c.Sats[l.A].ShellIndex != c.Sats[l.B].ShellIndex {
					t.Fatalf("cross-shell link %v (shells %d and %d)",
						l, c.Sats[l.A].ShellIndex, c.Sats[l.B].ShellIndex)
				}
				deg[l.A]++
				deg[l.B]++
			}
			limit := maxDegree(id)
			for sat, d := range deg {
				if d > limit {
					t.Fatalf("satellite %d has degree %d, motif bound is %d", sat, d, limit)
				}
			}
		})
	}
}

// Star shells must never get seam wrap links from any motif.
func TestMotifStarSeamOpen(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			c := testConst(t, Option(MustBuild(id, Config{})))
			star := 1 // PolarShell is shell index 1
			sh := c.Shells[star]
			for _, l := range c.ISLs {
				if c.Sats[l.A].ShellIndex != star {
					continue
				}
				pa, pb := c.Sats[l.A].Plane, c.Sats[l.B].Plane
				if (pa == 0 && pb == sh.Planes-1) || (pa == sh.Planes-1 && pb == 0) {
					t.Fatalf("link %v wraps the star shell seam (planes %d–%d)", l, pa, pb)
				}
			}
		})
	}
}

// Every motif must be deterministic: two independent builds (and, for
// epoch-aware motifs, two evaluations at the same instant) give identical
// link slices.
func TestMotifDeterminism(t *testing.T) {
	at := geo.Epoch.Add(37 * time.Minute)
	for _, id := range IDs() {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			c1 := testConst(t, Option(MustBuild(id, Config{})))
			c2 := testConst(t, Option(MustBuild(id, Config{})))
			a, b := c1.ISLsAt(at), c2.ISLsAt(at)
			if len(a) != len(b) {
				t.Fatalf("builds differ in size: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("link %d differs across identical builds: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
}

// Epoch-aware motifs must actually react to geometry: the nearest matching
// at two instants half an orbit apart should not be the same set, and both
// sets must hold the package invariants.
func TestEpochAwareMotifsEvolve(t *testing.T) {
	c := testConst(t, constellation.WithISLs())
	for _, id := range []ID{Nearest, Demand} {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			m, ok := MustBuild(id, Config{}).(EpochAware)
			if !ok {
				t.Fatalf("%s is not EpochAware", id)
			}
			a := m.LinksAt(c, geo.Epoch)
			b := m.LinksAt(c, geo.Epoch.Add(45*time.Minute))
			_, ha := sortedHash(a)
			_, hb := sortedHash(b)
			if ha == hb {
				t.Errorf("%s: identical link sets half an orbit apart — epoch awareness is not wired", id)
			}
		})
	}
}

// Ladder is exactly the intra-plane rings: 2 links per satellite, no
// cross-plane links at all.
func TestLadderRingOnly(t *testing.T) {
	c := testConst(t, Option(MustBuild(Ladder, Config{})))
	for _, l := range c.ISLs {
		if c.Sats[l.A].Plane != c.Sats[l.B].Plane {
			t.Fatalf("ladder link %v crosses planes", l)
		}
	}
	want := 0
	for _, sh := range c.Shells {
		want += sh.Planes * sh.SatsPerPlane
	}
	if len(c.ISLs) != want {
		t.Fatalf("ladder has %d links, want %d (one ring link per satellite)", len(c.ISLs), want)
	}
}

// Diag-grid holds +Grid link count (equal hardware cost) but shifts every
// cross-plane link by the slot offset.
func TestDiagGridParityAndShift(t *testing.T) {
	sh := constellation.TestShell()
	plus, err := constellation.New([]constellation.Shell{sh}, constellation.WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	diag, err := constellation.New([]constellation.Shell{sh}, Option(MustBuild(DiagGrid, Config{})))
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.ISLs) != len(plus.ISLs) {
		t.Fatalf("diag-grid has %d links, +Grid has %d — hardware parity broken", len(diag.ISLs), len(plus.ISLs))
	}
	for _, l := range diag.ISLs {
		sa, sb := diag.Sats[l.A], diag.Sats[l.B]
		if sa.Plane == sb.Plane {
			continue
		}
		// Interior cross-plane links must land offset slots over.
		if (sa.Plane+1)%sh.Planes == sb.Plane && sb.Plane != 0 {
			if want := (sa.Slot + 1) % sh.SatsPerPlane; sb.Slot != want {
				t.Fatalf("diag link %v: plane %d slot %d → plane %d slot %d, want slot %d",
					l, sa.Plane, sa.Slot, sb.Plane, sb.Slot, want)
			}
		}
	}
}

// Demand placement spends exactly the parity budget (+Grid total link count)
// on a delta shell where the cap cannot bind globally.
func TestDemandBudgetParity(t *testing.T) {
	sh := constellation.TestShell()
	plus, err := constellation.New([]constellation.Shell{sh}, constellation.WithISLs())
	if err != nil {
		t.Fatal(err)
	}
	dem, err := constellation.New([]constellation.Shell{sh}, Option(MustBuild(Demand, Config{})))
	if err != nil {
		t.Fatal(err)
	}
	if len(dem.ISLs) > len(plus.ISLs) {
		t.Fatalf("demand motif placed %d links, +Grid parity budget is %d", len(dem.ISLs), len(plus.ISLs))
	}
	// The greedy must spend nearly all of the budget — the inter-plane cap
	// can strand a few units, but a large shortfall means the candidate set
	// is too narrow.
	if len(dem.ISLs) < len(plus.ISLs)*9/10 {
		t.Fatalf("demand motif placed only %d links of the %d budget", len(dem.ISLs), len(plus.ISLs))
	}
}

func TestParseIDRoundTrip(t *testing.T) {
	for _, id := range IDs() {
		b, err := id.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back ID
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Errorf("round trip %s → %q → %s", id, b, back)
		}
	}
	if _, err := ParseID("mesh"); err == nil {
		t.Error("ParseID accepted unknown motif name")
	}
	var id ID
	if err := id.UnmarshalText([]byte("grid")); err == nil {
		t.Error("UnmarshalText accepted unknown motif name")
	}
	if _, err := (ID(99)).MarshalText(); err == nil {
		t.Error("MarshalText accepted out-of-range id")
	}
}
