package topo

import (
	"testing"

	"leosim/internal/constellation"
)

// BenchmarkMotifBuild measures the cost of computing each motif's link set
// on the Starlink phase-1 shell — the per-epoch rebuild cost the topo sweep
// pays for epoch-aware motifs.
func BenchmarkMotifBuild(b *testing.B) {
	c, err := constellation.New([]constellation.Shell{constellation.StarlinkPhase1()})
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range IDs() {
		id := id
		b.Run(id.String(), func(b *testing.B) {
			m := MustBuild(id, Config{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				links := m.Links(c)
				if len(links) == 0 {
					b.Fatal("no links")
				}
			}
		})
	}
}
