package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, "sim-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Step("latency", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := j.Step("latency", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := j.MarkDone("fig3", []byte("fig3 output\n")); err != nil {
		t.Fatal(err)
	}

	// Reopen — the crash/restart path.
	j2, err := OpenJournal(path, "sim-a")
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Steps("latency"); len(got) != 2 {
		t.Fatalf("Steps = %d, want 2", len(got))
	}
	if got := j2.Steps("disconnected"); len(got) != 0 {
		t.Fatalf("unrelated experiment has %d steps", len(got))
	}
	out, ok := j2.DoneOutput("fig3")
	if !ok || string(out) != "fig3 output\n" {
		t.Fatalf("DoneOutput = %q, %v", out, ok)
	}
	if _, ok := j2.DoneOutput("fig4"); ok {
		t.Fatal("fig4 reported done")
	}
	if j2.Len() != 4 { // header + 2 steps + 1 done
		t.Fatalf("Len = %d, want 4", j2.Len())
	}
}

func TestJournalRefusesForeignConfiguration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	if _, err := OpenJournal(path, "starlink/reduced json=true"); err != nil {
		t.Fatal(err)
	}
	_, err := OpenJournal(path, "kuiper/tiny json=false")
	if err == nil || !strings.Contains(err.Error(), "different run configuration") {
		t.Fatalf("err = %v, want configuration mismatch", err)
	}
}

func TestJournalToleratesTruncatedTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Step("latency", 1.0); err != nil {
		t.Fatal(err)
	}
	// Simulate a non-atomic writer dying mid-line.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, append(data, []byte(`{"kind":"step","exp`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, "sim")
	if err != nil {
		t.Fatalf("truncated trailing line rejected: %v", err)
	}
	if got := j2.Steps("latency"); len(got) != 1 {
		t.Fatalf("Steps = %d, want 1 (torn record dropped)", len(got))
	}
}

func TestJournalFromContext(t *testing.T) {
	if JournalFrom(context.Background()) != nil {
		t.Fatal("journal in empty context")
	}
	j := &Journal{}
	if JournalFrom(WithJournal(context.Background(), j)) != j {
		t.Fatal("journal did not round-trip through context")
	}
}

// Float is the one wire form of a result value that can be non-finite:
// finite values round-trip bit for bit, ±Inf and NaN are written as null, and
// null reads back as +Inf — wherever the value sits in a result.
func TestFloatRoundTrip(t *testing.T) {
	finite := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 123.456789012345, 1e-300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1 + 0.2}
	for _, v := range finite {
		raw, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatal(err)
		}
		if plain, _ := json.Marshal(v); !bytes.Equal(raw, plain) {
			t.Errorf("Float(%g) encodes as %s, float64 as %s", v, raw, plain)
		}
		var got Float
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(float64(got)) != math.Float64bits(v) {
			t.Errorf("%g round-tripped through %s to %g", v, raw, float64(got))
		}
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if raw, err := json.Marshal(Float(v)); err != nil || string(raw) != "null" {
			t.Errorf("Float(%g) encodes as %s, %v; want null", v, raw, err)
		}
	}

	type holder struct {
		Field Float            `json:"field"`
		Slice []Float          `json:"slice"`
		Map   map[string]Float `json:"map"`
	}
	inf := Float(math.Inf(1))
	in := holder{Field: inf, Slice: []Float{1.5, inf, 1e-300}, Map: map[string]Float{"a": inf, "b": 2}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"field":null,"slice":[1.5,null,1e-300],"map":{"a":null,"b":2}}`; string(raw) != want {
		t.Fatalf("holder encodes as %s, want %s", raw, want)
	}
	// Decode over finite leftovers: null must overwrite them with +Inf, not
	// leave them (encoding/json's default for null into a non-pointer).
	out := holder{Field: 7, Map: map[string]Float{"a": 7}}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("holder round-tripped to %+v, want %+v", out, in)
	}
}

// TestRunSteps drives the one resumable-sweep loop through its state space:
// how many units there are, how many a previous run journaled, where the run
// is cancelled, where compute fails (with and without a cancelled ctx), a
// replayed step the caller rejects, and a journal that cannot be written.
// Unit i's state is 10·i, so apply also checks that every state — replayed
// or computed — reaches the index it belongs to.
func TestRunSteps(t *testing.T) {
	errCompute := errors.New("compute failed")
	errReject := errors.New("apply rejected")
	const none = -1
	cases := []struct {
		name          string
		n             int
		journaled     int  // steps a previous run left; none = no journal
		cancelBefore  int  // ctx is cancelled once this many units are applied
		computeErrAt  int  // compute fails at this unit…
		cancelWithErr bool // …after cancelling ctx
		rejectAt      int  // apply rejects this unit
		breakJournal  bool // the journal's directory vanishes before the run

		wantDone     int
		wantErr      error // nil, errCompute, errReject, or errAny
		wantApplied  []int
		wantComputed []int
		wantSteps    int // journal steps afterwards
	}{
		{name: "no journal", n: 3, journaled: none, cancelBefore: none, computeErrAt: none, rejectAt: none,
			wantDone: 3, wantApplied: []int{0, 1, 2}, wantComputed: []int{0, 1, 2}},
		{name: "no units", n: 0, journaled: 0, cancelBefore: none, computeErrAt: none, rejectAt: none,
			wantDone: 0},
		{name: "empty journal", n: 3, journaled: 0, cancelBefore: none, computeErrAt: none, rejectAt: none,
			wantDone: 3, wantApplied: []int{0, 1, 2}, wantComputed: []int{0, 1, 2}, wantSteps: 3},
		{name: "journaled prefix", n: 3, journaled: 2, cancelBefore: none, computeErrAt: none, rejectAt: none,
			wantDone: 3, wantApplied: []int{0, 1, 2}, wantComputed: []int{2}, wantSteps: 3},
		{name: "fully journaled", n: 3, journaled: 3, cancelBefore: none, computeErrAt: none, rejectAt: none,
			wantDone: 3, wantApplied: []int{0, 1, 2}, wantSteps: 3},
		{name: "journal longer than sweep", n: 3, journaled: 5, cancelBefore: none, computeErrAt: none, rejectAt: none,
			wantDone: 3, wantApplied: []int{0, 1, 2}, wantSteps: 5},
		{name: "cancelled before unit 0", n: 3, journaled: 0, cancelBefore: 0, computeErrAt: none, rejectAt: none,
			wantDone: 0},
		{name: "cancelled before unit 2", n: 4, journaled: 0, cancelBefore: 2, computeErrAt: none, rejectAt: none,
			wantDone: 2, wantApplied: []int{0, 1}, wantComputed: []int{0, 1}, wantSteps: 2},
		{name: "cancelled run still replays", n: 4, journaled: 2, cancelBefore: 0, computeErrAt: none, rejectAt: none,
			wantDone: 2, wantApplied: []int{0, 1}, wantSteps: 2},
		{name: "compute error", n: 3, journaled: 0, cancelBefore: none, computeErrAt: 1, rejectAt: none,
			wantDone: 1, wantErr: errCompute, wantApplied: []int{0}, wantComputed: []int{0, 1}, wantSteps: 1},
		{name: "compute error under cancelled ctx is a cancellation", n: 3, journaled: 0, cancelBefore: none,
			computeErrAt: 1, cancelWithErr: true, rejectAt: none,
			wantDone: 1, wantApplied: []int{0}, wantComputed: []int{0, 1}, wantSteps: 1},
		{name: "after a replayed unit too", n: 3, journaled: 1, cancelBefore: none,
			computeErrAt: 1, cancelWithErr: true, rejectAt: none,
			wantDone: 1, wantApplied: []int{0}, wantComputed: []int{1}, wantSteps: 1},
		{name: "but not with nothing applied", n: 3, journaled: 0, cancelBefore: none,
			computeErrAt: 0, cancelWithErr: true, rejectAt: none,
			wantDone: 0, wantErr: errCompute, wantComputed: []int{0}},
		{name: "replayed step rejected", n: 3, journaled: 3, cancelBefore: none, computeErrAt: none, rejectAt: 1,
			wantDone: 1, wantErr: errReject, wantApplied: []int{0}, wantSteps: 3},
		{name: "journal write failure", n: 3, journaled: 1, cancelBefore: none, computeErrAt: none, rejectAt: none,
			breakJournal: true,
			wantDone:     1, wantErr: errAny, wantApplied: []int{0}, wantComputed: []int{1}, wantSteps: 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var j *Journal
			if tc.journaled != none {
				dir := filepath.Join(t.TempDir(), "j")
				if err := os.Mkdir(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				j = openTestJournal(t, filepath.Join(dir, "run.journal"))
				for i := 0; i < tc.journaled; i++ {
					if err := j.Step("sweep", 10*i); err != nil {
						t.Fatal(err)
					}
				}
				if err := j.Step("other", "not this sweep's"); err != nil {
					t.Fatal(err)
				}
				if tc.breakJournal {
					if err := os.RemoveAll(dir); err != nil {
						t.Fatal(err)
					}
				}
				ctx = WithJournal(ctx, j)
			}
			var applied, computed []int
			cancelIfDue := func() {
				if len(applied) == tc.cancelBefore {
					cancel()
				}
			}
			cancelIfDue()
			done, err := runSteps(ctx, "sweep", tc.n,
				func(i int) (int, error) {
					computed = append(computed, i)
					if i == tc.computeErrAt {
						if tc.cancelWithErr {
							cancel()
						}
						return 0, errCompute
					}
					return 10 * i, nil
				},
				func(i int, st int) error {
					if st != 10*i {
						t.Errorf("apply(%d) got state %d, want %d", i, st, 10*i)
					}
					if i == tc.rejectAt {
						return errReject
					}
					applied = append(applied, i)
					cancelIfDue()
					return nil
				})
			if done != tc.wantDone {
				t.Errorf("done = %d, want %d", done, tc.wantDone)
			}
			if tc.wantErr == errAny {
				if err == nil {
					t.Errorf("err = nil, want a journal write error")
				}
			} else if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Errorf("err = %v, want %v", err, tc.wantErr)
			}
			if !reflect.DeepEqual(applied, tc.wantApplied) {
				t.Errorf("applied %v, want %v", applied, tc.wantApplied)
			}
			if !reflect.DeepEqual(computed, tc.wantComputed) {
				t.Errorf("computed %v, want %v", computed, tc.wantComputed)
			}
			if j != nil {
				if got := len(j.Steps("sweep")); got != tc.wantSteps {
					t.Errorf("journal holds %d steps, want %d", got, tc.wantSteps)
				}
			}
		})
	}

	// A replayed step that does not decode as the sweep's state fails the
	// run instead of being skipped or zero-valued.
	j := openTestJournal(t, filepath.Join(t.TempDir(), "run.journal"))
	if err := j.Step("sweep", "ten"); err != nil {
		t.Fatal(err)
	}
	done, err := runSteps(WithJournal(context.Background(), j), "sweep", 2,
		func(i int) (int, error) { t.Error("computed past an undecodable step"); return 0, nil },
		func(int, int) error { t.Error("applied an undecodable step"); return nil })
	if done != 0 || err == nil || !strings.Contains(err.Error(), "journal sweep step 0") {
		t.Errorf("undecodable step: done = %d, err = %v", done, err)
	}
}

// errAny stands for "some error" where the cause is the file system's.
var errAny = errors.New("any error")
