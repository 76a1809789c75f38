package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"leosim"
)

// captureRun executes the CLI with stdout redirected into a buffer,
// returning the exact byte stream the run produced. Tests in this package
// run sequentially, so swapping the package-level stdout is safe.
func captureRun(ctx context.Context, args []string) ([]byte, error) {
	old := stdout
	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = old }()
	err := run(ctx, args)
	return buf.Bytes(), err
}

// extArgs is the journaled sweep every subtest replays: the ext suite at
// tiny scale, JSON envelopes, no CDF tails (ext includes the resilience
// sweep, so both experiment-level and snapshot-level journaling are
// exercised).
func extArgs(journal string) []string {
	return []string{"-scale", "tiny", "-snapshots", "2", "-cdf-points", "0",
		"-quiet", "-json", "-resume", journal, "ext"}
}

// allArgs is the paper's reproduction command at the smallest sizing where
// every experiment of all succeeds (Delhi–Sydney needs the reduced city set to
// route on BP) and fig4/fig5 notice two more city terminals (the full reduced
// traffic matrix; at 100 pairs none of it transits Maceió or Durban).
func allArgs(extra ...string) []string {
	return append([]string{"-scale", "reduced", "-snapshots", "2",
		"-cdf-points", "0", "-quiet", "-json"}, extra...)
}

// groupSize counts the experiment table's rows in group g.
func groupSize(g string) int {
	n := 0
	for _, e := range leosim.Experiments {
		if e.Group == g {
			n++
		}
	}
	return n
}

// countDone reports how many experiments the journal has marked complete.
func countDone(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return bytes.Count(data, []byte(`"kind":"done"`))
}

// The -resume acceptance path, end to end: a journaled sweep replays
// byte-identically, a sweep killed mid-run resumes to the same bytes without
// redoing completed experiments, and a journal never accepts flags that
// would change the output it stores.
func TestResumeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweeps in -short mode")
	}
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.journal")

	// The reference: one uninterrupted journaled run.
	want, err := captureRun(context.Background(), extArgs(ref))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference run produced no output")
	}

	t.Run("replay is byte-identical", func(t *testing.T) {
		got, err := captureRun(context.Background(), extArgs(ref))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replayed output differs from original (%d vs %d bytes)", len(got), len(want))
		}
	})

	t.Run("kill and resume is byte-identical", func(t *testing.T) {
		journal := filepath.Join(dir, "killed.journal")
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The "kill": cancel the run's context — the CLI face of Ctrl-C —
		// once at least two experiments have journaled as done, leaving the
		// rest uncomputed.
		stopWatch := make(chan struct{})
		go func() {
			defer cancel()
			for {
				select {
				case <-stopWatch:
					return
				case <-time.After(2 * time.Millisecond):
				}
				if countDone(journal) >= 2 {
					return
				}
			}
		}()
		_, _ = captureRun(ctx, extArgs(journal)) // error expected; ignored
		close(stopWatch)

		done := countDone(journal)
		if done < 2 || done >= groupSize("ext") {
			t.Fatalf("killed run journaled %d done experiments, want a strict mid-sweep prefix", done)
		}
		got, err := captureRun(context.Background(), extArgs(journal))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("resumed output differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
		}
		if got, want := countDone(journal), groupSize("ext"); got != want {
			t.Errorf("resumed journal holds %d done experiments, want all %d", got, want)
		}
	})

	// A journal that ends right after fig3 — the experiment that adds cities
	// beyond the top-N cut — replays fig3 and recomputes the rest: they must
	// not depend on fig3 having run in this process.
	t.Run("all resumed after fig3 is byte-identical", func(t *testing.T) {
		full := filepath.Join(dir, "all.journal")
		want, err := captureRun(context.Background(), allArgs("-resume", full, "all"))
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		var cut int
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			cut += len(line)
			if bytes.Contains(line, []byte(`"kind":"done"`)) && bytes.Contains(line, []byte(`"experiment":"fig3"`)) {
				break
			}
		}
		if cut == len(data) {
			t.Fatal("no done record for fig3 before the journal's last line")
		}
		journal := filepath.Join(dir, "all-cut.journal")
		if err := os.WriteFile(journal, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := captureRun(context.Background(), allArgs("-resume", journal, "all"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("all resumed after fig3 differs from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
		}
	})

	// Every flag that changes the bytes the journal stores must change its
	// header: -cdf-points the rendering, -seed the traffic matrix, -motif
	// the ISL topology (the last two leave every count in the sim's summary
	// as it was).
	t.Run("refuses mismatched flags", func(t *testing.T) {
		for _, flags := range [][]string{{"-cdf-points", "7"}, {"-seed", "7"}, {"-motif", "ladder"}} {
			args := extArgs(ref) // a later flag overrides: insert before the experiment name
			args = append(args[:len(args)-1], append(flags, "ext")...)
			_, err := captureRun(context.Background(), args)
			if err == nil || !strings.Contains(err.Error(), "different run configuration") {
				t.Errorf("%v: err = %v, want run-configuration mismatch", flags, err)
			}
		}
	})
}

// `leosim all` is the stand-alone experiments in sequence: each envelope's
// data equals that experiment run alone on a fresh sim, so no experiment
// depends on which ones ran before it on the shared sim.
func TestAllMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweeps in -short mode")
	}
	type envelope struct {
		Experiment string          `json:"experiment"`
		Data       json.RawMessage `json:"data"`
	}
	envelopes := func(args []string) []envelope {
		t.Helper()
		out, err := captureRun(context.Background(), args)
		if err != nil {
			t.Fatal(err)
		}
		var envs []envelope
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var e envelope
			if err := dec.Decode(&e); err == io.EOF {
				return envs
			} else if err != nil {
				t.Fatal(err)
			}
			envs = append(envs, e)
		}
	}
	all := envelopes(allArgs("all"))
	if want := groupSize("all"); len(all) != want {
		t.Fatalf("all emitted %d envelopes, want %d", len(all), want)
	}
	for _, e := range all {
		alone := envelopes(allArgs(e.Experiment))
		if len(alone) != 1 || !bytes.Equal(alone[0].Data, e.Data) {
			t.Errorf("%s under all differs from %s run alone", e.Experiment, e.Experiment)
		}
	}
}
