package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"

	"leosim/internal/core"
)

// stamp is the provenance of a run: enough to say which code, toolchain,
// machine and inputs produced a number, and how the load was applied.
type stamp struct {
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Cities     int    `json:"cities"`
	Pairs      int    `json:"pairs"`
	Snapshots  int    `json:"snapshots"`
	Clients    int    `json:"clients"`
	Load       string `json:"load"`
}

const loadStatement = "closed loop, one keep-alive connection per client from one http.Transport, " +
	"server in-process (server.New + Serve on 127.0.0.1:0, CLI defaults of `serve -prime -oracle`, " +
	"slog text handler at info writing to io.Discard), real loopback TCP, bodies fully read"

func newStamp(seed int64, sc core.Scale, clients int) stamp {
	sha, dirty := gitState()
	return stamp{
		GitSHA: sha, GitDirty: dirty,
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: seed, Scale: sc.Name, Cities: sc.NumCities, Pairs: sc.NumPairs, Snapshots: sc.NumSnapshots,
		Clients: clients, Load: loadStatement,
	}
}

// gitState reports the checkout's commit; "unknown" outside a git checkout
// (the driver's copy is not one).
func gitState() (sha string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(strings.TrimSpace(string(status))) > 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// procSample is the process-wide resource reading taken either side of a
// measured phase.
type procSample struct {
	cpuNs      int64
	totalAlloc uint64
	mallocs    uint64
	gcPauseNs  uint64
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpuNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		gcPauseNs:  ms.PauseTotalNs,
	}
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setProc records the proc.* metrics for the phase between two samples.
func (r *result) setProc(before, after procSample) {
	r.set("proc.cpu_s", "s", float64(after.cpuNs-before.cpuNs)/1e9)
	r.set("proc.peak_rss_mb", "MB", peakRSSMB())
	r.set("proc.alloc_mb", "MB", float64(after.totalAlloc-before.totalAlloc)/1e6)
	r.set("proc.gc_pause_ms", "ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6)
}
