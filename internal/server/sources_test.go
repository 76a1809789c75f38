package server

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"leosim/internal/core"
	"leosim/internal/graph"
	"leosim/internal/telemetry"
	"leosim/internal/topo"
)

// TestSnapshotSourcesAgree holds every way of obtaining a snapshot to one
// answer: for each motif and mode, the sim's cached schedule snapshot,
// BuildNetworkAt's, a time cursor anchored there and the entry the server's
// primer deposited carry the same links at the last schedule instant — the
// ISLs at t are decided in one place, whoever asks. (A cursor stepped there
// from an earlier instant keeps the lasers it anchored with: core's
// TestWalkerKeepsAnchorLasers.)
func TestSnapshotSourcesAgree(t *testing.T) {
	scale := core.TinyScale()
	scale.NumSnapshots = 2
	newSim := func(t *testing.T, id topo.ID) *core.Sim {
		t.Helper()
		sim, err := core.NewSim(core.Starlink, scale, core.WithMotifID(id))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	latencyJSON := func(t *testing.T, sim *core.Sim) []byte {
		t.Helper()
		res, err := core.RunLatency(context.Background(), sim)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.WriteJSON(&buf, "fig2a", sim, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ctx := context.Background()
	for _, id := range topo.IDs() {
		id := id
		t.Run(id.String(), func(t *testing.T) {
			if id == topo.Demand && testing.Short() {
				t.Skip("demand placement costs seconds per snapshot")
			}
			sim := newSim(t, id)
			times := sim.SnapshotTimes()
			last := times[len(times)-1]
			srv := newTestServer(t, Config{Sim: sim, PrimeSnapshots: true})
			if _, err := srv.primeAll(ctx); err != nil {
				t.Fatal(err)
			}
			for _, mode := range []core.Mode{core.BP, core.Hybrid} {
				primed, ok := srv.cache.GetCached(snapSpec{t: last, mode: mode})
				if !ok {
					t.Fatalf("%s: primer left no entry", mode)
				}
				built, err := sim.BuildNetworkAt(ctx, last, mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				walked := sim.NewWalker(mode).At(last)
				// The cached snapshot last: whatever it leaves behind must
				// not be what made the others agree.
				want := sim.NetworkAt(last, mode).Links
				for label, got := range map[string][]graph.Link{
					"primed entry": primed.N.Links, "BuildNetworkAt": built.Links, "walker": walked.Links,
				} {
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %s has %d links that differ from NetworkAt's %d",
							mode, label, len(got), len(want))
					}
				}
			}
		})
	}

	// The sweep riding on those snapshots: a sim that has just served the
	// last instant and one that has served nothing write the same envelope.
	t.Run("latency-order", func(t *testing.T) {
		fresh, used := newSim(t, topo.Nearest), newSim(t, topo.Nearest)
		times := used.SnapshotTimes()
		used.NetworkAt(times[len(times)-1], core.Hybrid)
		if !bytes.Equal(latencyJSON(t, fresh), latencyJSON(t, used)) {
			t.Error("RunLatency's envelope depends on which snapshots the sim served before")
		}
	})

	// Under -race: concurrent askers for the hybrid network of an epoch-aware
	// motif — each a base scan, a placement and a derivation — share nothing
	// they write.
	t.Run("concurrent", func(t *testing.T) {
		sim := newSim(t, topo.Nearest)
		t0 := sim.SnapshotTimes()[0]
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			// Distinct instants: every pair of calls races for one cache
			// miss, and the eight builds really overlap.
			at := t0.Add(time.Duration(i) * time.Minute)
			wg.Add(2)
			go func() {
				defer wg.Done()
				sim.NetworkAt(at, core.Hybrid)
			}()
			go func() {
				defer wg.Done()
				if _, err := sim.BuildNetworkAt(ctx, at, core.Hybrid, nil); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	})
}

// TestOneScanPerInstant: priming a day of both modes runs the propagation +
// visibility scan once per snapshot, and a what-if against the primed day
// runs none — the masked network is derived from the resident healthy
// entry.
func TestOneScanPerInstant(t *testing.T) {
	scans := func() int64 {
		return telemetry.Enable().Histogram(telemetry.StageGraphBuild.String()).Count()
	}
	defer telemetry.Disable()
	sim, err := core.NewSim(core.Starlink, core.TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, Config{Sim: sim, PrimeSnapshots: true})
	before := scans()
	if _, err := srv.primeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := scans()-before, int64(sim.Scale.NumSnapshots); got != want {
		t.Errorf("priming %d snapshots × 2 modes ran %d scans, want %d", want, got, want)
	}

	before = scans()
	builds := srv.CacheStats().Builds
	pair := sim.Pairs[0]
	for _, mode := range []core.Mode{core.BP, core.Hybrid} {
		url := q("/v1/path", "src", sim.CityName(pair.Src), "dst", sim.CityName(pair.Dst),
			"mode", mode.String(), "snap", "2", "fault", "sat", "fraction", "0.1", "seed", "3")
		if rec := getJSON(t, srv.Handler(), url, nil); rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.String())
		}
	}
	if got := srv.CacheStats().Builds - builds; got != 2 {
		t.Errorf("two masked keys cost %d cache builds, want 2", got)
	}
	if got := scans() - before; got != 0 {
		t.Errorf("masked /v1/path against a primed day ran %d scans, want 0", got)
	}
}
