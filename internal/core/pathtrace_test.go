package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"leosim/internal/stats"
)

func TestRunPathTraceMaceioDurban(t *testing.T) {
	s, err := NewSim(Starlink, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunPathTrace(context.Background(), s, "Maceió", "Durban", BP)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Traces) != s.Scale.NumSnapshots {
		t.Fatalf("traces = %d", len(r.Traces))
	}
	reachable := 0
	for _, tr := range r.Traces {
		if tr.Reachable {
			reachable++
			if tr.Hops < 2 {
				t.Fatalf("BP path with %d hops", tr.Hops)
			}
			if tr.Route == "" {
				t.Fatalf("empty route rendering")
			}
			// A transoceanic BP path must zig-zag: intermediate ground
			// hops of some kind appear.
			if tr.AircraftHops+tr.RelayHops+tr.CityHops == 0 {
				t.Errorf("no intermediate ground hop in %s", tr.Route)
			}
		}
	}
	if reachable == 0 {
		t.Fatal("Maceió–Durban never reachable under BP")
	}
	// Fig 3's point: the south-Atlantic BP path is volatile. At tiny
	// scale we only assert the trace machinery: inflation is finite and
	// non-negative when ≥2 snapshots connect.
	if reachable >= 2 {
		if inf := r.RTTInflationMs(); inf < 0 {
			t.Errorf("negative inflation %v", inf)
		}
	}
	// South Atlantic crossing relies on aircraft relays (no land within
	// GSL range mid-ocean).
	if !r.UsesAircraftEver() {
		t.Logf("note: no aircraft used at tiny scale (sparse schedule)")
	}
	if _, err := RunPathTrace(context.Background(), s, "Maceió", "Nowhere", BP); err == nil {
		t.Errorf("unknown city must fail")
	}
}

func TestHybridPathStabler(t *testing.T) {
	s, err := NewSim(Starlink, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	bp, err := RunPathTrace(context.Background(), s, "Maceió", "Durban", BP)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := RunPathTrace(context.Background(), s, "Maceió", "Durban", Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid is reachable at every snapshot and at lower RTT than BP
	// whenever both connect.
	var bpR, hyR []float64
	for i := range bp.Traces {
		if !hy.Traces[i].Reachable {
			t.Fatalf("hybrid unreachable at snapshot %d", i)
		}
		hyR = append(hyR, float64(hy.Traces[i].RTTMs))
		if bp.Traces[i].Reachable {
			bpR = append(bpR, float64(bp.Traces[i].RTTMs))
			if hy.Traces[i].RTTMs > bp.Traces[i].RTTMs+1e-9 {
				t.Errorf("snapshot %d: hybrid %v > bp %v",
					i, hy.Traces[i].RTTMs, bp.Traces[i].RTTMs)
			}
		}
	}
	if len(bpR) >= 2 && stats.Mean(hyR) >= stats.Mean(bpR) {
		t.Errorf("hybrid mean RTT %v not below BP %v", stats.Mean(hyR), stats.Mean(bpR))
	}
}

func TestCrossShellBrisbaneTokyo(t *testing.T) {
	s, err := NewSim(Starlink, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunCrossShell(context.Background(), s, "Brisbane", "Tokyo")
	if err != nil {
		t.Fatal(err)
	}
	// The two-shell constellation (with BP transition points) can never
	// be slower on average: it strictly contains the single-shell graph.
	meanMs, frac := r.Improvement()
	if meanMs < -1e-6 {
		t.Errorf("two shells slower by %v ms — impossible", -meanMs)
	}
	_ = frac
	var buf bytes.Buffer
	WriteCrossShellReport(&buf, r)
	if !strings.Contains(buf.String(), "fig10") {
		t.Errorf("report:\n%s", buf.String())
	}
}

func TestFiberAugmentationParis(t *testing.T) {
	s, err := NewSim(Starlink, TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	nearby := []string{"Rouen", "Orléans", "Reims", "Amiens", "Le Mans"}
	r, err := RunFiberAugmentation(context.Background(), s, "Paris", nearby, 200, s.SnapshotTimes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.MetroVisible <= 0 {
		t.Fatalf("Paris sees no satellites")
	}
	// Fig 11: fiber neighbors expand the reachable satellite set.
	if r.UnionVisible < r.MetroVisible {
		t.Errorf("union %v < metro alone %v", r.UnionVisible, r.MetroVisible)
	}
	if r.UnionUplinkGbps < r.MetroUplinkGbps {
		t.Errorf("union capacity below metro capacity")
	}
	if r.ThroughputGainFrac < -1e-9 {
		t.Errorf("fiber made throughput worse: %v", r.ThroughputGainFrac)
	}
	var buf bytes.Buffer
	WriteFiberReport(&buf, r)
	if !strings.Contains(buf.String(), "fig11") {
		t.Errorf("report:\n%s", buf.String())
	}
}

// An unreachable snapshot stores +Inf RTT internally, which encoding/json
// rejects; the field is a Float, so it renders as null and -json output of a
// partially disconnected trace stays valid.
func TestHopTraceJSONUnreachable(t *testing.T) {
	r := &PathTraceResult{Traces: []HopTrace{
		{RTTMs: Float(math.Inf(1))},
		{RTTMs: 42.5, Reachable: true},
	}}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal with unreachable trace: %v", err)
	}
	s := string(raw)
	for _, want := range []string{`"rttMs":null`, `"rttMs":42.5`, `"reachable":false`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s in %s", want, s)
		}
	}
}
