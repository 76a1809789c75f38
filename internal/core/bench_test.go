package core

// Benchmark harness: one sub-benchmark per row of the experiment table,
// plus ablations for the design choices DESIGN.md calls out. The rows make
// the same calls as the CLI, at a scale chosen so one iteration stays in the
// milliseconds-to-seconds range; the reported per-op time is the cost of
// regenerating that experiment at bench scale. Shapes (who wins, by what factor) match the paper at every scale;
// absolute ratios sharpen with scale (see EXPERIMENTS.md).

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"leosim/internal/constellation"
	"leosim/internal/flow"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/ground"
)

// benchScale is TinyScale with slightly more aircraft so every experiment
// (including the South Atlantic path trace) is exercised.
func benchScale() Scale {
	s := TinyScale()
	s.AircraftDensity = 0.5
	return s
}

var (
	benchSimOnce sync.Once
	benchSim     *Sim
	benchSimErr  error
)

func getBenchSim(b *testing.B) *Sim {
	b.Helper()
	benchSimOnce.Do(func() {
		benchSim, benchSimErr = NewSim(Starlink, benchScale())
	})
	if benchSimErr != nil {
		b.Fatal(benchSimErr)
	}
	return benchSim
}

// BenchmarkExperiment regenerates each experiment of the table the CLI runs,
// one sub-benchmark per row, with churn's and topo's window cut to 10 s.
// fig8 runs on a sim with the Australian relays Delhi–Sydney needs.
func BenchmarkExperiment(b *testing.B) {
	args := DefaultArgs()
	args.ChurnStep, args.ChurnWindow = 2*time.Second, 10*time.Second
	for _, e := range Experiments {
		b.Run(e.Name, func(b *testing.B) {
			s := getBenchSim(b)
			if e.Name == "fig8" {
				s = fig8Sim(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(context.Background(), s, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fig8Sim is a small sim with a denser ground segment than the shared tiny
// one, which has no Australian city or relay.
func fig8Sim(b *testing.B) *Sim {
	scale := TinyScale()
	scale.NumCities = 150
	scale.RelaySpacingDeg = 2
	scale.RelayMaxKm = 2000
	scale.AircraftDensity = 1
	scale.NumSnapshots = 2
	s, err := NewSim(Starlink, scale)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// ---- Ablation benches (design choices called out in DESIGN.md) ----

// BenchmarkAblationKPaths sweeps the multipath degree k: the paper fixes
// k ∈ {1,4}; this shows the cost and the diminishing returns beyond k=4.
func BenchmarkAblationKPaths(b *testing.B) {
	s := getBenchSim(b)
	t := s.SnapshotTimes()[0]
	for _, k := range []int{1, 2, 4, 8} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunThroughput(context.Background(), s, Hybrid, k, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRelayDensity compares BP latency computation across relay
// grid densities — the knob the paper credits for BP's viability.
func BenchmarkAblationRelayDensity(b *testing.B) {
	for _, spacing := range []float64{2.5, 5, 10} {
		scale := benchScale()
		scale.RelaySpacingDeg = spacing
		scale.NumSnapshots = 2
		s, err := NewSim(Starlink, scale)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("spacingDegX10="+strconv.Itoa(int(spacing*10)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunLatency(context.Background(), s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPropagator compares the J2-secular Kepler propagator the
// experiments use against the full SGP4 port.
func BenchmarkAblationPropagator(b *testing.B) {
	shell := []constellation.Shell{constellation.StarlinkPhase1()}
	kep, err := constellation.New(shell)
	if err != nil {
		b.Fatal(err)
	}
	sgp, err := constellation.New(shell, constellation.WithSGP4())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("kepler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kep.PositionsECEF(geo.Epoch)
		}
	})
	b.Run("sgp4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sgp.PositionsECEF(geo.Epoch)
		}
	})
}

// BenchmarkAblationVisibility compares the grid-bucket visibility search in
// the graph builder against brute force over all satellites.
func BenchmarkAblationVisibility(b *testing.B) {
	c, err := constellation.New([]constellation.Shell{constellation.StarlinkPhase1()})
	if err != nil {
		b.Fatal(err)
	}
	cities, err := ground.Cities(200)
	if err != nil {
		b.Fatal(err)
	}
	seg, err := ground.NewSegment(cities, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	builder, err := graph.NewBuilder(c, seg, nil, graph.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("grid-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := builder.At(geo.Epoch)
			if len(n.Links) == 0 {
				b.Fatal("no links")
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		pos := c.PositionsECEF(geo.Epoch)
		sh := constellation.StarlinkPhase1()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			links := 0
			for _, term := range seg.Terminals {
				for _, sp := range pos {
					if geo.Elevation(term.ECEF, sp) >= sh.MinElevationDeg {
						links++
					}
				}
			}
			if links == 0 {
				b.Fatal("no links")
			}
		}
	})
}

// BenchmarkAblationMaxMin compares the exact progressive-filling max-min
// allocator against the one-shot bottleneck approximation.
func BenchmarkAblationMaxMin(b *testing.B) {
	s := getBenchSim(b)
	t := s.SnapshotTimes()[0]
	n := s.NetworkAt(t, Hybrid)
	// One shared problem from the hybrid network and k=4 disjoint paths.
	pr := flow.NewNetworkProblem(n, 0)
	for _, pair := range s.Pairs {
		for _, p := range n.KDisjointPaths(n.CityNode(pair.Src), n.CityNode(pair.Dst), 4) {
			if _, err := pr.AddPath(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pr.MaxMinFair(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("approx", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pr.BottleneckApprox(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSatCapacity compares the default capacity model (each
// satellite's up-down radio capacity is an aggregate pool shared across its
// GTs, per §2) against the per-link-only model. The pool model is what
// reproduces the paper's Fig 4/5 ratios; see EXPERIMENTS.md.
func BenchmarkAblationSatCapacity(b *testing.B) {
	for _, cfg := range []struct {
		name string
		gbps float64
	}{{"pool20", 20}, {"linkOnly", 0}} {
		s, err := NewSim(Starlink, benchScale(), WithSatelliteCapacity(cfg.gbps))
		if err != nil {
			b.Fatal(err)
		}
		t := s.SnapshotTimes()[0]
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunThroughput(context.Background(), s, Hybrid, 4, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotBuild measures raw per-snapshot graph construction for
// both modes — the inner loop every experiment pays.
func BenchmarkSnapshotBuild(b *testing.B) {
	s := getBenchSim(b)
	for _, mode := range []Mode{BP, Hybrid} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Vary the instant so the cache never hits.
				t := geo.Epoch.Add(time.Duration(i+1) * time.Second)
				n := s.NetworkAt(t, mode)
				if n.N() == 0 {
					b.Fatal("empty network")
				}
			}
		})
	}
}
