package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"leosim/internal/geo"
)

// The network cache predates the serving subsystem and was only ever hit by
// one experiment goroutine at a time. Serving reads it from many: the builder is
// write-once in NewSim and every snapshot build goes through the singleflight
// snapcache; this test hits both modes from many goroutines and relies on
// -race to flag regressions.
func TestNetworkCacheConcurrentAccess(t *testing.T) {
	scale := TinyScale()
	scale.NumSnapshots = 2
	s, err := NewSim(Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	times := []time.Time{geo.Epoch, geo.Epoch.Add(time.Hour)}

	const workers = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				mode := BP
				if (w+i)%2 == 0 {
					mode = Hybrid
				}
				n := s.NetworkAt(times[i%len(times)], mode)
				if n == nil || n.N() == 0 {
					t.Error("NetworkAt returned an unusable network")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Concurrent NetworkAt calls for one (time, mode) key must share a single
// build: the serving acceptance criterion, asserted at the sim layer.
func TestNetworkAtSingleBuildUnderConcurrency(t *testing.T) {
	scale := TinyScale()
	scale.NumSnapshots = 1
	s, err := NewSim(Starlink, scale)
	if err != nil {
		t.Fatal(err)
	}
	base := s.NetworkCacheStats().Builds

	const N = 100
	nets := make([]interface{}, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			nets[i] = s.NetworkAt(geo.Epoch, BP)
		}()
	}
	wg.Wait()
	if got := s.NetworkCacheStats().Builds - base; got != 1 {
		t.Fatalf("%d concurrent NetworkAt calls ran %d builds, want 1", N, got)
	}
	for i := 1; i < N; i++ {
		if nets[i] != nets[0] {
			t.Fatalf("caller %d got a different network instance", i)
		}
	}
}

// A Sim never changes after NewSim: every experiment of the table — the
// named-city ones derive a private sim for the cities they add — leaves the
// caller's city set, segment, resident snapshots and throughput numbers as
// they were, so `leosim all` runs fig4 on the sim fig3 ran on. A concurrent
// NetworkAt reader makes -race the check that nothing writes the shared sim
// meanwhile.
func TestExperimentsLeaveSimUnchanged(t *testing.T) {
	s, err := NewSim(Starlink, australiaScale())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	t0 := s.SnapshotTimes()[0]
	cities, terminals := len(s.Cities), len(s.Seg.Terminals)
	resident := s.NetworkAt(t0, BP)
	fig4, err := RunFig4(ctx, s)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			// Paced, so the reader does not take a core from the experiments
			// it watches.
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				if n := s.NetworkAt(t0, BP); n.NumCity != cities {
					t.Errorf("reader saw a network with %d cities, want %d", n.NumCity, cities)
					return
				}
			}
		}
	}()
	for _, e := range Experiments {
		if e.Name == "topo" && testing.Short() {
			continue // every motif × both modes
		}
		if _, err := e.Run(ctx, s, detArgs()); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
	close(stop)
	wg.Wait()

	if len(s.Cities) != cities || len(s.Seg.Terminals) != terminals {
		t.Errorf("sim grew: %d cities / %d terminals, want %d / %d",
			len(s.Cities), len(s.Seg.Terminals), cities, terminals)
	}
	if got := s.NetworkAt(t0, BP); got != resident {
		t.Errorf("resident snapshot was replaced: %p, want %p", got, resident)
	}
	after, err := RunFig4(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, fig4) {
		t.Errorf("fig4 changed after the table's experiments:\nbefore %+v\nafter  %+v", fig4, after)
	}
}
