package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// TestSweepGoldens pins the tiny-scale WriteJSON envelopes of the sweeps
// whose snapshots come from more than one source (the schedule cache, masked
// builds, the seconds-scale cursor) and of the five named-city experiments,
// which run on a sim derived with cities beyond the top-N cut, and of the
// results whose wire form is their struct tags (fig4, throughput, beams,
// util) or the tagged struct plus derived headline fields (te, fig6). The
// determinism suite compares a run with itself; these fixtures compare it
// with the bytes recorded before the snapshot sources were unified, for the
// named-city ones while the cities were still added to the caller's sim in
// place, and for the tagged ones while each still had a hand-written
// MarshalJSON. Rerun with -update only for an intended change of an
// experiment's numbers, and read the diff.
func TestSweepGoldens(t *testing.T) {
	cases := []struct {
		name  string
		slow  bool
		scale func() Scale // nil = TinyScale
		run   func(ctx context.Context, s *Sim) (interface{}, error)
	}{
		{"fig2a", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunLatency(ctx, s)
		}},
		{"pathchurn", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunPathChurn(ctx, s)
		}},
		{"resilience", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunResilience(ctx, s, "sat", nil)
		}},
		{"topo", true, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunTopo(ctx, s, TopoOptions{})
		}},
		{"fig3", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunPathTrace(ctx, s, "Maceió", "Durban", BP)
		}},
		{"fig7", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunHeatmap(ctx, s, "Delhi", "Sydney", 4)
		}},
		{"fig8", false, australiaScale, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunPairWeather(ctx, s, "Delhi", "Sydney")
		}},
		{"fig10", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunCrossShell(ctx, s, "Brisbane", "Tokyo")
		}},
		{"fig11", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunFiberAugmentation(ctx, s, "Paris", []string{"Rouen", "Orléans"}, 200, Epoch())
		}},
		{"fig4", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunFig4(ctx, s)
		}},
		{"throughput", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunThroughput(ctx, s, Hybrid, 4, Epoch())
		}},
		{"beams", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunBeamSweep(ctx, s, []int{2, 8, 0}, Epoch())
		}},
		{"util", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			bp, err := RunUtilization(ctx, s, BP, Epoch())
			if err != nil {
				return nil, err
			}
			hy, err := RunUtilization(ctx, s, Hybrid, Epoch())
			return []*UtilizationResult{bp, hy}, err
		}},
		{"te", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunTrafficEngineering(ctx, s, Hybrid, 4, Epoch())
		}},
		{"fig6", false, nil, func(ctx context.Context, s *Sim) (interface{}, error) {
			return RunWeather(ctx, s)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("every motif × both modes in -short mode")
			}
			scale := TinyScale
			if tc.scale != nil {
				scale = tc.scale
			}
			s, err := NewSim(Starlink, scale())
			if err != nil {
				t.Fatal(err)
			}
			res, err := tc.run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteJSON(&buf, tc.name, s, res); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s envelope differs from %s; rerun with -update if the change is intentional", tc.name, path)
			}
		})
	}
}
