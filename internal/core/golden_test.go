package core

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// TestSweepGoldens pins, for every row of the experiment table, the bytes
// `leosim -scale tiny -json -resume <fresh> <name>` prints (fig8 at the
// Australia sizing, where Delhi–Sydney routes), plus the one k = 4 cell of
// Fig 4 that RunThroughput computes alone. Each fixture was recorded from the
// CLI before the change it guards. Rerun with -update only for an intended
// change of an experiment's numbers, and read the diff.
func TestSweepGoldens(t *testing.T) {
	type golden struct {
		name  string
		scale func() Scale
		print func(ctx context.Context, w io.Writer, s *Sim) error
	}
	var cases []golden
	for _, e := range Experiments {
		e := e
		scale := TinyScale
		if e.Name == "fig8" {
			scale = australiaScale
		}
		cases = append(cases, golden{e.Name, scale, func(ctx context.Context, w io.Writer, s *Sim) error {
			return e.Print(ctx, w, s, DefaultArgs(), true, nil)
		}})
	}
	cases = append(cases, golden{"throughput", TinyScale, func(ctx context.Context, w io.Writer, s *Sim) error {
		res, err := RunThroughput(ctx, s, Hybrid, 4, Epoch())
		if err != nil {
			return err
		}
		return WriteJSON(w, "throughput", s, res)
	}})
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "topo" && testing.Short() {
				t.Skip("every motif × both modes in -short mode")
			}
			s, err := NewSim(Starlink, tc.scale())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tc.print(context.Background(), &buf, s); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
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
				t.Fatalf("%s output differs from %s; rerun with -update if the change is intentional", tc.name, path)
			}
		})
	}
}
