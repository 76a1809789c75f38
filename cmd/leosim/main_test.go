package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"leosim"
)

// The CLI plumbing: flag parsing, scale/constellation resolution, and the
// experiment table's rows end to end at tiny scale.
func TestRunInfo(t *testing.T) {
	if err := run(context.Background(), []string{"-scale", "tiny", "info"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunKuiper(t *testing.T) {
	if err := run(context.Background(), []string{"-scale", "tiny", "-constellation", "kuiper", "info"}); err != nil {
		t.Fatal(err)
	}
}

// Every experiment the CLI runs prints, under -json and a fresh journal, the
// bytes of its golden fixture in internal/core/testdata, and its text report
// renders. fig8 is left out: Delhi–Sydney does not route at tiny scale, so
// its fixture is recorded at a larger city set.
func TestRunSingleExperiments(t *testing.T) {
	for _, e := range leosim.Experiments {
		if e.Name == "fig8" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			if e.Name == "topo" && testing.Short() {
				t.Skip("every motif × both modes in -short mode")
			}
			journal := filepath.Join(t.TempDir(), "run.journal")
			got, err := captureRun(context.Background(), []string{"-scale", "tiny", "-json", "-quiet", "-resume", journal, e.Name})
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "internal", "core", "testdata", e.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("leosim -json %s differs from its golden fixture (%d vs %d bytes)", e.Name, len(got), len(want))
			}
			// The text report at the determinism suite's sizing, which every
			// row but fig8 supports.
			if _, err := captureRun(context.Background(), []string{"-scale", "tiny", "-snapshots", "2", "-pairs", "24", "-quiet", e.Name}); err != nil {
				t.Fatalf("text mode: %v", err)
			}
		})
	}
}

// Experiments that build their own snapshots carry the run's context into
// the snapshot cache, so their -json envelopes attribute the builds:
// stage_times names graph_build or a cache stage.
func TestStageTimesNameBuilds(t *testing.T) {
	for _, name := range []string{"fig3", "fig10", "fig11"} {
		out, err := captureRun(context.Background(), []string{"-scale", "tiny", "-snapshots", "2", "-json", "-quiet", name})
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			StageTimes map[string]json.RawMessage `json:"stage_times"`
		}
		if err := json.Unmarshal(out, &env); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		found := false
		for _, stage := range []string{"graph_build", "cache_hit", "cache_miss", "cache_wait"} {
			_, ok := env.StageTimes[stage]
			found = found || ok
		}
		if !found {
			t.Errorf("%s: stage_times %v names no build or cache stage", name, env.StageTimes)
		}
	}
}

// The seconds-scale churn experiment honours its step/window flags (a short
// window keeps the test fast) in both text and JSON form.
func TestRunChurnFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("churn dispatch in -short mode")
	}
	args := []string{"-scale", "tiny", "-churn-step", "2s", "-churn-window", "10s"}
	if err := run(context.Background(), append(args, "churn")); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(args, "-json", "churn")); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSONFlag(t *testing.T) {
	if err := run(context.Background(), []string{"-scale", "tiny", "-json", "disconnected"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                      // no experiment
		{"fig4", "extra"},                       // too many args
		{"-scale", "huge", "fig4"},              // unknown scale
		{"-constellation", "teledesic", "fig4"}, // unknown constellation
		{"-scale", "tiny", "figX"},              // unknown experiment
		{"-scale", "tiny", "-fault", "meteor", "resilience"},                    // unknown scenario
		{"-scale", "tiny", "-churn-step", "1m", "-churn-window", "1s", "churn"}, // window < step
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) should fail", args)
		} else if strings.Contains(err.Error(), "panic") {
			t.Errorf("run(%v) panicked: %v", args, err)
		}
	}

	// A mistyped experiment is refused before a sim is built or a journal
	// opened, with the valid names in the message.
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	err := run(context.Background(), []string{"-scale", "reduced", "-resume", journal, "figX"})
	if err == nil || !strings.Contains(err.Error(), "fig2a") {
		t.Errorf("unknown experiment: err = %v, want the valid names", err)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("unknown experiment left a journal behind (stat: %v)", err)
	}
}

// A pre-cancelled context must abort the run with the context's error rather
// than hang or panic.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-scale", "tiny", "fig2a"})
	if err == nil {
		t.Fatal("cancelled run should fail")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("err = %v, want context.Canceled in the chain", err)
	}
}

// `leosim -version` prints the build identity and exits successfully
// without requiring an experiment.
func TestRunVersion(t *testing.T) {
	if err := run(context.Background(), []string{"-version"}); err != nil {
		t.Fatal(err)
	}
}

// The serve subcommand must come up, then drain cleanly when the run
// context is cancelled — the CLI face of the server lifecycle tests.
func TestRunServeDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-scale", "tiny", "-snapshots", "1"})
	}()
	time.Sleep(100 * time.Millisecond) // let the listener come up
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after cancel: %v, want nil", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not drain after cancel")
	}
}

// -quiet and -trace ride along on any run: -quiet silences the slog lines,
// -trace writes a non-empty runtime/trace file.
func TestRunQuietAndTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.trace")
	if err := run(context.Background(), []string{"-scale", "tiny", "-quiet", "-trace", out, "info"}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(out)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if fi.Size() == 0 {
		t.Error("trace file is empty")
	}
	// An unwritable trace path must fail up front, not mid-run.
	if err := run(context.Background(), []string{"-scale", "tiny", "-trace", filepath.Join(out, "nope"), "info"}); err == nil {
		t.Error("unwritable -trace path should fail")
	}
}

func TestRunServeErrors(t *testing.T) {
	cases := [][]string{
		{"serve", "extra"},                  // positional args
		{"serve", "-scale", "huge"},         // unknown scale
		{"serve", "-constellation", "iris"}, // unknown constellation
		{"serve", "-addr", "256.0.0.1:bad"}, // unlistenable address
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
