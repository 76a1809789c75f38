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
	"leosim/internal/topo"
)

// TestSnapshotSourcesAgree holds every way of obtaining a snapshot to one
// answer: for each motif and mode, the sim's cached schedule snapshot, an
// uncached build, a time cursor stepped there from the epoch and the entry
// the server's primer deposited carry the same links at the last schedule
// instant — the ISLs at t are decided in one place, whoever asks.
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
				primed, _, ok := srv.cache.GetCached(srv.cacheKey(snapSpec{t: last, mode: mode}))
				if !ok {
					t.Fatalf("%s: primer left no entry", mode)
				}
				built, err := sim.BuildNetworkAt(ctx, last, mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				w := sim.NewWalker(mode)
				w.At(times[0])
				walked := w.At(last)
				// The cached snapshot last: whatever it leaves behind must
				// not be what made the others agree.
				want := sim.NetworkAt(last, mode).Links
				for label, got := range map[string][]graph.Link{
					"primed entry": primed.Links, "BuildNetworkAt": built.Links, "walker": walked.Links,
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

	// Under -race: cached and uncached hybrid builds of an epoch-aware motif
	// share nothing they write.
	t.Run("concurrent", func(t *testing.T) {
		sim := newSim(t, topo.Nearest)
		t0 := sim.SnapshotTimes()[0]
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			// Distinct instants: every NetworkAt is a cache miss, so cached
			// and uncached builds really overlap.
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
