package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"leosim/internal/atomicfile"
	"leosim/internal/telemetry"
)

// Journal is a crash-safe record of sweep progress: per-experiment,
// per-snapshot completion records plus final experiment outputs, persisted
// as a JSONL sidecar. Every append rewrites the whole file atomically
// (temp + fsync + rename), so a crash — or a kill -9 — at any instant
// leaves either the previous complete journal or the new complete journal,
// never a torn one. A truncated trailing line (a crash mid-write of a
// non-atomic writer, or a copied file) is tolerated on load and dropped.
//
// The journal is keyed to one configuration: OpenJournal records a
// description (sim + output flags) in a header record and refuses to reuse
// a journal written under a different one, so resumed runs can never
// splice together results from incompatible sweeps.
type Journal struct {
	path string

	mu      sync.Mutex
	records []journalRecord
}

// journalRecord is one JSONL line.
type journalRecord struct {
	// Kind is "header" (first line: configuration fingerprint), "step"
	// (one completed unit — snapshot, fraction, baseline — of one
	// experiment), or "done" (one experiment's complete rendered output).
	Kind       string          `json:"kind"`
	Desc       string          `json:"desc,omitempty"`       // header
	Experiment string          `json:"experiment,omitempty"` // step, done
	State      json.RawMessage `json:"state,omitempty"`      // step
	Output     []byte          `json:"output,omitempty"`     // done
}

// OpenJournal opens (or creates) the journal at path for runs described by
// desc. An existing journal must carry the same desc in its header.
func OpenJournal(path, desc string) (*Journal, error) {
	j := &Journal{path: path}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		j.records = []journalRecord{{Kind: "header", Desc: desc}}
		if err := j.flushLocked(); err != nil {
			return nil, err
		}
		return j, nil
	case err != nil:
		return nil, fmt.Errorf("core: journal: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 64<<20) // step states carry whole per-snapshot RTT arrays
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn trailing line is the expected crash artifact; a torn
			// line in the middle means the file is not ours.
			if len(j.records) > 0 && !sc.Scan() {
				break
			}
			return nil, fmt.Errorf("core: journal %s: corrupt record: %w", path, err)
		}
		j.records = append(j.records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: journal %s: %w", path, err)
	}
	if len(j.records) == 0 || j.records[0].Kind != "header" {
		return nil, fmt.Errorf("core: journal %s: missing header record", path)
	}
	if j.records[0].Desc != desc {
		return nil, fmt.Errorf("core: journal %s was written by a different run configuration (%q, want %q)",
			path, j.records[0].Desc, desc)
	}
	return j, nil
}

// flushLocked rewrites the whole journal atomically. Callers hold j.mu (or
// have exclusive access during construction).
func (j *Journal) flushLocked() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range j.records {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("core: journal: %w", err)
		}
	}
	if err := atomicfile.WriteFile(j.path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("core: journal: %w", err)
	}
	return nil
}

// Step appends one completed unit of work for experiment, with state as its
// replayable payload, and persists the journal before returning. After Step
// returns, a crash cannot lose that unit.
func (j *Journal) Step(experiment string, state interface{}) error {
	raw, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("core: journal: %w", err)
	}
	return j.appendRecord(journalRecord{Kind: "step", Experiment: experiment, State: raw})
}

// appendRecord adds rec and persists the journal; a failed write leaves the
// in-memory journal as it was, so Steps never reports a unit the file lacks.
func (j *Journal) appendRecord(rec journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.records = append(j.records, rec)
	if err := j.flushLocked(); err != nil {
		j.records = j.records[:len(j.records)-1]
		return err
	}
	return nil
}

// Steps returns the recorded step payloads for experiment, in append order.
func (j *Journal) Steps(experiment string) []json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []json.RawMessage
	for _, rec := range j.records {
		if rec.Kind == "step" && rec.Experiment == experiment {
			out = append(out, rec.State)
		}
	}
	return out
}

// MarkDone records experiment as complete with its full rendered output,
// which a resumed run replays instead of recomputing.
func (j *Journal) MarkDone(experiment string, output []byte) error {
	return j.appendRecord(journalRecord{Kind: "done", Experiment: experiment, Output: output})
}

// DoneOutput returns the stored output of a completed experiment.
func (j *Journal) DoneOutput(experiment string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, rec := range j.records {
		if rec.Kind == "done" && rec.Experiment == experiment {
			return rec.Output, true
		}
	}
	return nil, false
}

// Len reports the number of records (header included) — a cheap progress
// fingerprint for tests and logs.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.records)
}

// journalCtxKey carries a *Journal through the experiment runners.
type journalCtxKey struct{}

// WithJournal returns a context whose experiment runs record per-snapshot
// progress into j and skip units j already holds.
func WithJournal(ctx context.Context, j *Journal) context.Context {
	return context.WithValue(ctx, journalCtxKey{}, j)
}

// JournalFrom extracts the journal, or nil when the run is unjournaled.
func JournalFrom(ctx context.Context) *Journal {
	j, _ := ctx.Value(journalCtxKey{}).(*Journal)
	return j
}

// runSteps is the one resumable-sweep loop: it runs units 0..n-1 of the sweep
// journaled as name, where compute(i) produces unit i's state — a result
// type, so its wire form is the one the experiment emits — and apply(i, st)
// folds it into the caller's result. Under a journal (WithJournal) the units
// a previous run completed are decoded and applied instead of computed, in
// order, and a rejecting apply fails the run rather than splicing a foreign
// journal; each computed unit is journaled before it is applied, so an
// applied unit is never lost to a crash and replay ≡ recompute.
//
// Cancellation takes effect at unit boundaries only: ctx is checked before
// each unit, and a compute error under a cancelled ctx after at least one
// applied unit is that cancellation, not a failure. done counts the applied
// units; done < n with a nil error means ctx was cancelled, and what a
// partial or empty sweep means is the caller's rule.
func runSteps[T any](ctx context.Context, name string, n int,
	compute func(i int) (T, error), apply func(i int, st T) error) (done int, err error) {
	prog := telemetry.NewProgress(Progress, name, n)
	defer prog.Finish()
	jour := JournalFrom(ctx)
	if jour != nil {
		for _, raw := range jour.Steps(name) {
			if done == n {
				break
			}
			var st T
			if err = json.Unmarshal(raw, &st); err != nil {
				return done, fmt.Errorf("core: journal %s step %d: %w", name, done, err)
			}
			if err = apply(done, st); err != nil {
				return done, err
			}
			done++
			prog.Step(1)
		}
		if done > 0 {
			telemetry.EmitEvent(ctx, telemetry.CatJournal, telemetry.SevInfo,
				"journal replay: steps restored from previous run",
				telemetry.Str("experiment", name),
				telemetry.Int64("steps", int64(done)))
		}
	}
	for ; done < n && ctx.Err() == nil; done++ {
		var st T
		if st, err = compute(done); err != nil {
			if ctx.Err() != nil && done > 0 {
				return done, nil
			}
			return done, err
		}
		if jour != nil {
			if err = jour.Step(name, st); err != nil {
				return done, err
			}
		}
		if err = apply(done, st); err != nil {
			return done, err
		}
		prog.Step(1)
	}
	return done, nil
}
