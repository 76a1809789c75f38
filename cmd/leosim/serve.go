// The serve subcommand runs the constellation query service: one sim, built
// once at startup, answering concurrent path/latency/reachability queries
// over HTTP until SIGINT/SIGTERM, then draining gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"time"

	"leosim"
	"leosim/internal/fault"
	"leosim/internal/server"
	"leosim/internal/version"
)

// newLogger builds the serve request logger from the -log-level/-log-format
// flags; both handlers write to stderr, keeping stdout clean.
func newLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("leosim serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	scaleName := fs.String("scale", "reduced", "simulation scale: tiny|reduced|large|full")
	constName := fs.String("constellation", "starlink", "constellation: starlink|kuiper")
	snapshots := fs.Int("snapshots", 0, "override the snapshot count (0 = scale default)")
	cities := fs.Int("cities", 0, "override the number of cities (0 = scale default)")
	cacheSize := fs.Int("cache-size", 0, "snapshot cache capacity in graphs (0 = snapshots+4, or 2×snapshots+8 with -prime)")
	prime := fs.Bool("prime", false, "prime the snapshot cache in the background at startup: build and deposit every snapshot of the day for both modes")
	oracleOn := fs.Bool("oracle", false, "also build a distance oracle per primed snapshot so /v1/paths batches start warm (requires -prime)")
	buildTimeout := fs.Duration("build-timeout", 0, "per-snapshot build deadline (0 = unbounded)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive build failures that trip the circuit breaker (0 = default 5, negative = disabled)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "open-breaker cooldown before one probe build (0 = 5s)")
	chaosFail := fs.Float64("chaos-fail", 0, "chaos: probability a snapshot build fails (testing only)")
	chaosPanic := fs.Float64("chaos-panic", 0, "chaos: probability a snapshot build panics (testing only)")
	chaosDelay := fs.Duration("chaos-delay", 0, "chaos: added latency per snapshot build (testing only)")
	chaosSeed := fs.Int64("chaos-seed", 1, "chaos: injection seed (same seed, same faults)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent query cap, excess sheds 429 (0 = 2×GOMAXPROCS)")
	reqTimeout := fs.Duration("req-timeout", 15*time.Second, "per-query deadline")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound after SIGTERM")
	logLevel := fs.String("log-level", "info", "request log level: debug|info|warn|error")
	logFormat := fs.String("log-format", "text", "request log format: text|json")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: leosim serve [flags]\n\nendpoints: /v1/path /v1/latency /v1/reachability /v1/snapshots /healthz\n           POST /v1/paths (batched multi-pair queries, oracle-served)\n           /metrics (JSON; ?format=prometheus for text exposition)\n           /debug/events (flight recorder) /debug/trace (Perfetto span capture)\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("serve takes no positional arguments")
	}

	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *snapshots > 0 {
		scale.NumSnapshots = *snapshots
	}
	if *cities > 0 {
		scale.NumCities = *cities
	}
	choice, err := constellationByName(*constName)
	if err != nil {
		return err
	}
	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		return err
	}

	start := time.Now()
	sim, err := leosim.NewSim(choice, scale)
	if err != nil {
		return err
	}
	var chaos *fault.Chaos
	if *chaosFail > 0 || *chaosPanic > 0 || *chaosDelay > 0 {
		chaos = fault.NewChaos(*chaosSeed, *chaosFail, *chaosPanic, *chaosDelay)
		fmt.Fprintf(os.Stderr, "chaos injection armed: fail=%.2f panic=%.2f delay=%v seed=%d\n",
			*chaosFail, *chaosPanic, *chaosDelay, *chaosSeed)
	}
	srv, err := server.New(server.Config{
		Sim:              sim,
		CacheSize:        *cacheSize,
		BuildTimeout:     *buildTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		PrimeSnapshots:   *prime,
		PrimeOracles:     *oracleOn,
		Chaos:            chaos,
		MaxInFlight:      *maxInFlight,
		RequestTimeout:   *reqTimeout,
		DrainTimeout:     *drainTimeout,
		Logger:           logger,
		EnablePprof:      *pprofOn,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s\nserving %s on http://%s (built in %v)\n",
		version.Get(), sim, ln.Addr(), time.Since(start).Round(time.Millisecond))
	return srv.Serve(ctx, ln)
}
