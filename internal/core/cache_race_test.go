package core

import (
	"sync"
	"testing"
	"time"

	"leosim/internal/geo"
)

// The network cache predates the serving subsystem and was only ever hit by
// one experiment goroutine at a time. Serving reads it from many: builders is
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
