package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"leosim/internal/geo"
)

// Every Run* entry point must be a pure function of (constellation, scale,
// seed): two runs from identically constructed sims must serialize to
// byte-identical JSON envelopes. This pins down iteration-order leaks
// (map-ordered merges, nondeterministic worker interleavings, unseeded
// randomness) anywhere in the pipeline — the paper's numbers are only
// reproducible if the pipeline is.

// detScale trims the test scale so the full entry-point table stays fast.
func detScale() Scale {
	sc := TinyScale()
	sc.NumSnapshots = 2
	sc.NumPairs = 24
	return sc
}

// australiaScale is where Delhi–Sydney routes on BP: the tiny 60-city set
// has no Australian city, so the pair-weather cases bridge the gap the way
// TestRunPairWeatherDelhiSydney does.
func australiaScale() Scale {
	sc := detScale()
	sc.NumCities = 150
	sc.RelaySpacingDeg = 2
	sc.RelayMaxKm = 2000
	sc.AircraftDensity = 1
	return sc
}

func TestRunEntryPointsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full entry-point sweep in -short mode")
	}
	cases := []struct {
		name  string
		scale func() Scale // nil = detScale
		run   func(ctx context.Context, s *Sim) (interface{}, error)
	}{
		{"latency", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunLatency(ctx, s)
		}},
		{"pathtrace", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunPathTrace(ctx, s, "Maceió", "Durban", BP)
		}},
		{"throughput", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunThroughput(ctx, s, Hybrid, 1, Epoch())
		}},
		{"fig4", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunFig4(ctx, s)
		}},
		{"fig5", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			pts, bp, err := RunFig5(ctx, s, []float64{0.5, 2})
			return struct {
				BP     float64
				Points []Fig5Point
			}{bp, pts}, err
		}},
		{"disconnected", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunDisconnected(ctx, s)
		}},
		{"weather", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunWeather(ctx, s)
		}},
		{"weather-ka", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunWeatherBand(ctx, s, KaBand)
		}},
		{"pairweather", australiaScale, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunPairWeather(ctx, s, "Delhi", "Sydney")
		}},
		{"heatmap", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunHeatmap(ctx, s, "Delhi", "Sydney", 4)
		}},
		{"gsoarc", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunGSOArc(ctx, s, 40, []float64{0, 30, 60})
		}},
		{"gsoimpact", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunGSOImpact(ctx, s)
		}},
		{"crossshell", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunCrossShell(ctx, s, "Brisbane", "Tokyo")
		}},
		{"fiber", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunFiberAugmentation(ctx, s, "Paris", []string{"Rouen", "Orléans"}, 200, Epoch())
		}},
		{"te", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunTrafficEngineering(ctx, s, Hybrid, 4, Epoch())
		}},
		{"modcod", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunWeatherCapacity(ctx, s)
		}},
		{"utilization", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunUtilization(ctx, s, Hybrid, Epoch())
		}},
		{"pathchurn", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunPathChurn(ctx, s)
		}},
		{"churn", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunChurn(ctx, s, ChurnOptions{Step: 2 * time.Second, Window: 10 * time.Second})
		}},
		{"beams", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunBeamSweep(ctx, s, []int{4, 0}, Epoch())
		}},
		{"relays", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunRelayDensitySweep(ctx, s.Choice, s.Scale, []float64{s.Scale.RelaySpacingDeg})
		}},
		{"resilience", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunResilience(ctx, s, "sat", []float64{0, 0.1})
		}},
		{"check", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunCheck(ctx, s, CheckOptions{Snapshots: 1, PairSample: 8, OptimalitySample: 2})
		}},
		{"topo", nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunTopo(ctx, s, TopoOptions{
				ChurnStep:   2 * time.Second,
				ChurnWindow: 10 * time.Second,
			})
		}},
	}

	ctx := context.Background()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var out [2][]byte
			for rep := 0; rep < 2; rep++ {
				scale := detScale
				if tc.scale != nil {
					scale = tc.scale
				}
				s, err := NewSim(Starlink, scale())
				if err != nil {
					t.Fatal(err)
				}
				res, err := tc.run(ctx, s)
				if err != nil {
					t.Fatalf("run %d: %v", rep, err)
				}
				var buf bytes.Buffer
				if err := WriteJSON(&buf, tc.name, s, res); err != nil {
					t.Fatalf("run %d: %v", rep, err)
				}
				out[rep] = buf.Bytes()
			}
			if !bytes.Equal(out[0], out[1]) {
				a, b := out[0], out[1]
				i := 0
				for i < len(a) && i < len(b) && a[i] == b[i] {
					i++
				}
				lo := i - 120
				if lo < 0 {
					lo = 0
				}
				hiA, hiB := i+120, i+120
				if hiA > len(a) {
					hiA = len(a)
				}
				if hiB > len(b) {
					hiB = len(b)
				}
				t.Fatalf("same-seed runs diverge at byte %d:\nrun0 …%s…\nrun1 …%s…",
					i, a[lo:hiA], b[lo:hiB])
			}
		})
	}
}

// Epoch is the fixed snapshot time the single-snapshot cases above share.
func Epoch() time.Time { return geo.Epoch }
