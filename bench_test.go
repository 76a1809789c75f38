package leosim

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
// Benchmarks run the same experiment code as the CLI, at a scale chosen so
// one iteration stays in the hundreds-of-milliseconds-to-seconds range; the
// reported per-op time is the cost of regenerating that figure at bench
// scale. Shapes (who wins, by what factor) match the paper at every scale;
// absolute ratios sharpen with scale (see EXPERIMENTS.md).

import (
	"context"
	"io"
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
		if benchSimErr == nil {
			benchSim, benchSimErr = benchSim.WithCities("Maceió", "Durban")
		}
	})
	if benchSimErr != nil {
		b.Fatal(benchSimErr)
	}
	return benchSim
}

// BenchmarkFig2aMinRTT regenerates Fig 2a/2b: per-pair min RTT and RTT range
// across the day under BP and hybrid connectivity.
func BenchmarkFig2aMinRTT(b *testing.B) {
	s := getBenchSim(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunLatency(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if res.ReachablePairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

// BenchmarkFig2bRTTVariation isolates the variation metric (headline claim).
func BenchmarkFig2bRTTVariation(b *testing.B) {
	s := getBenchSim(b)
	res, err := RunLatency(context.Background(), s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med, p95 := res.Headline()
		if med < -100 || p95 < -100 {
			b.Fatal("impossible headline")
		}
	}
}

// BenchmarkFig3PathTrace regenerates the Maceió–Durban path trace.
func BenchmarkFig3PathTrace(b *testing.B) {
	s := getBenchSim(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPathTrace(context.Background(), s, "Maceió", "Durban", BP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Throughput regenerates the Fig 4 throughput matrix.
func BenchmarkFig4Throughput(b *testing.B) {
	s := getBenchSim(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := RunFig4(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		WriteFig4Report(io.Discard, rows)
	}
}

// BenchmarkFig5ISLSweep regenerates the ISL-capacity sweep.
func BenchmarkFig5ISLSweep(b *testing.B) {
	s := getBenchSim(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunFig5(context.Background(), s, []float64{0.5, 1, 2, 3, 4, 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisconnectedSats regenerates the §5 stranded-satellite statistic.
func BenchmarkDisconnectedSats(b *testing.B) {
	s := getBenchSim(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := RunDisconnected(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if r.Max <= 0 {
			b.Fatal("no disconnection measured")
		}
	}
}

// BenchmarkFig6Attenuation regenerates the cross-pair weather comparison.
func BenchmarkFig6Attenuation(b *testing.B) {
	s := getBenchSim(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunWeather(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8DelhiSydney regenerates the single-pair weather deep dive.
// Delhi–Sydney needs a denser ground segment than the shared tiny sim (no
// Australian relays there), so this bench owns a small dedicated sim.
func BenchmarkFig8DelhiSydney(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pw, err := RunPairWeather(context.Background(), s, "Delhi", "Sydney")
		if err != nil {
			b.Fatal(err)
		}
		bpDB, islDB, _, _ := pw.At1Percent()
		if bpDB <= islDB {
			b.Fatalf("BP %v ≤ ISL %v at 1%%", bpDB, islDB)
		}
	}
}

// BenchmarkFig9GSOArc regenerates the GSO arc-avoidance analysis.
func BenchmarkFig9GSOArc(b *testing.B) {
	s := getBenchSim(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := RunGSOArc(context.Background(), s, 40, []float64{0, 20, 40, 60, 80})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkFig10CrossShell regenerates the Brisbane–Tokyo BP-augmentation
// comparison.
func BenchmarkFig10CrossShell(b *testing.B) {
	s := getBenchSim(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunCrossShell(context.Background(), s, "Brisbane", "Tokyo"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Fiber regenerates the Paris fiber-augmentation analysis.
func BenchmarkFig11Fiber(b *testing.B) {
	s := getBenchSim(b)
	nearby := []string{"Rouen", "Orléans", "Reims", "Amiens", "Le Mans"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunFiberAugmentation(context.Background(), s, "Paris", nearby, 200, Epoch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtUtilization regenerates the satellite-load extension (§5).
func BenchmarkExtUtilization(b *testing.B) {
	s := getBenchSim(b)
	t := s.SnapshotTimes()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunUtilization(context.Background(), s, BP, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtPathChurn regenerates the path-stability extension (§4).
func BenchmarkExtPathChurn(b *testing.B) {
	s := getBenchSim(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunPathChurn(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtModcod regenerates the MODCOD capacity-retention extension
// (§6).
func BenchmarkExtModcod(b *testing.B) {
	s := getBenchSim(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunWeatherCapacity(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtTrafficEngineering regenerates the §5 future-work routing
// comparison.
func BenchmarkExtTrafficEngineering(b *testing.B) {
	s := getBenchSim(b)
	t := s.SnapshotTimes()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunTrafficEngineering(context.Background(), s, Hybrid, 4, t); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches (design choices called out in DESIGN.md) ----

// BenchmarkAblationKPaths sweeps the multipath degree k: the paper fixes
// k ∈ {1,4}; this shows the cost and the diminishing returns beyond k=4.
func BenchmarkAblationKPaths(b *testing.B) {
	s := getBenchSim(b)
	t := s.SnapshotTimes()[0]
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(benchName("k", k), func(b *testing.B) {
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
		b.Run(benchName("spacingDegX10", int(spacing*10)), func(b *testing.B) {
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
			kep.PositionsECEF(Epoch)
		}
	})
	b.Run("sgp4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sgp.PositionsECEF(Epoch)
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
	builder, err := graph.NewBuilder(c, seg, nil, graph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("grid-index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := builder.At(Epoch)
			if len(n.Links) == 0 {
				b.Fatal("no links")
			}
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		pos := c.PositionsECEF(Epoch)
		sh := constellation.StarlinkPhase1()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			links := 0
			for _, term := range seg.Terminals {
				for _, sp := range pos {
					if geo.Visible(term.ECEF, sp, sh.MinElevationDeg) {
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
	pr := flow.ProblemFromNetwork(n)
	for _, pair := range s.Pairs {
		for _, p := range n.KDisjointPaths(n.CityNode(pair.Src), n.CityNode(pair.Dst), 4) {
			if _, err := flow.AddPathFlow(pr, n, p); err != nil {
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
				t := Epoch.Add(time.Duration(i+1) * time.Second)
				n := s.NetworkAt(t, mode)
				if n.N() == 0 {
					b.Fatal("empty network")
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
