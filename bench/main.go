// Command bench is leosim's benchmark: two paper sweeps and three served
// workloads measured end to end, plus a traced pass that times every layer
// from outside. BENCHMARK.json at the repository root names the workloads
// and metrics; README.md in this directory defines them.
//
// Run it from this directory (the module is leosim/bench):
//
//	go run .                       every workload, one fresh process each
//	go run . -trace                the separate traced pass (per-layer metrics)
//	go run . -workload serve-path  one workload, in this process
//	go run . -compare a.json b.json
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics} holding exactly the metrics
// BENCHMARK.json lists for that pass.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"time"
)

// processStart anchors setup_s and every span timestamp.
var processStart = time.Now()

// nowNs is the monotonic clock every measurement reads.
func nowNs() int64 { return int64(time.Since(processStart)) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// normalizeTrace lets -trace be both the bare flag people type and the
// `--trace 0|1` pair the benchmark driver passes: a following 0 or 1 is
// folded into the flag.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run() error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "input seed: pair sampling, the Zipf request draw and the what-if fault seeds")
	seconds := fs.Float64("seconds", 0, "length of each workload's measured phase (default: run_seconds from BENCHMARK.json)")
	trace := fs.Bool("trace", false, "traced pass: per-layer metrics and a Chrome trace under out/ instead of the end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	setupChild := fs.Bool("setup-only", false, "internal: set up, print the set-up time, exit (a setup_s sample)")
	if err := fs.Parse(normalizeTrace(os.Args[1:])); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *setupChild {
		return setupOnly(ctx, realConfig(*workload, *seed, 0, false))
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *workload == "" {
		return runAll(ctx, sp, *seed, *seconds, *trace)
	}
	if sp.why(*workload) == "" {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json names %d)", *workload, len(sp.Workloads))
	}

	r, err := runWorkload(ctx, realConfig(*workload, *seed, *seconds, *trace), sp.why(*workload))
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	if err := writeJSONFile(resultFile(r.Workload, r.Trace), r); err != nil {
		return err
	}
	line, err := r.contract(sp)
	if err != nil {
		return err
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !r.Correct {
		return fmt.Errorf("%s: verification failed (%d of %d operations)", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}

// runAll runs every workload in a fresh child process — a workload must not
// inherit another's evicted cache or warmed process-global state — and
// gathers their records into one result set.
func runAll(ctx context.Context, sp *spec, seed int64, seconds float64, trace bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Trace: trace}
	var failed []string
	for _, w := range sp.Workloads {
		cmd := exec.CommandContext(ctx, exe,
			"-workload", w.Name,
			"-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace="+strconv.FormatBool(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.Name, err))
			continue
		}
		data, err := os.ReadFile(resultFile(w.Name, trace))
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		set.Results = append(set.Results, &r)
	}
	name := "result.json"
	if trace {
		name = "result.trace.json"
	}
	path := filepath.Join(outDir, name)
	if err := writeJSONFile(path, set); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d workloads)\n", path, len(set.Results))
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}
