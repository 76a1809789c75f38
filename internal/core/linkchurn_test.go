package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRunChurnDeterministic(t *testing.T) {
	s := getTinySim(t)
	a := Args{ChurnStep: 2 * time.Second, ChurnWindow: 20 * time.Second}
	r1, err := RunChurn(context.Background(), s, a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunChurn(context.Background(), s, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("churn not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestRunChurnShape(t *testing.T) {
	s := getTinySim(t)
	r, err := RunChurn(context.Background(), s, Args{ChurnStep: 2 * time.Second, ChurnWindow: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps != 10 {
		t.Fatalf("steps = %d, want 10", r.Steps)
	}
	for _, m := range []Mode{BP, Hybrid} {
		st, ok := r.Modes[m]
		if !ok || st.PairsUsed == 0 {
			t.Fatalf("mode %s missing or empty: %+v", m, st)
		}
		if st.RouteChangesPerMin < st.UplinkHandoversPerMin {
			t.Fatalf("%s: uplink handovers (%.2f/min) exceed route changes (%.2f/min) — a handover is a route change",
				m, st.UplinkHandoversPerMin, st.RouteChangesPerMin)
		}
	}
	if r.GSLAppearPerStep < 0 || r.GSLVanishPerStep < 0 {
		t.Fatalf("negative GSL rates: %+v", r)
	}

	var sb strings.Builder
	WriteChurnReport(&sb, r)
	out := sb.String()
	for _, want := range []string{"churn window=", "GSL edges", "bp", "hybrid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunChurnValidation(t *testing.T) {
	s := getTinySim(t)
	for _, a := range []Args{
		{ChurnStep: time.Minute, ChurnWindow: time.Second},
		{ChurnStep: 0, ChurnWindow: time.Minute},
		{ChurnStep: -time.Second, ChurnWindow: time.Minute},
	} {
		if _, err := RunChurn(context.Background(), s, a); err == nil {
			t.Errorf("step %v, window %v accepted", a.ChurnStep, a.ChurnWindow)
		}
		if _, err := RunTopo(context.Background(), s, a); err == nil {
			t.Errorf("topo: step %v, window %v accepted", a.ChurnStep, a.ChurnWindow)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunChurn(ctx, s, DefaultArgs()); err != context.Canceled {
		t.Fatalf("cancelled churn returned %v", err)
	}
}
