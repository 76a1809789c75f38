#!/bin/sh
# Run a benchmark suite and record it in its trajectory JSON file.
#
# usage: scripts/bench.sh [routing|snapshot|topo|telemetry|serve|all] [label]
#
# Targets:
#   routing   — the routing hot path (Dijkstra, ShortestPath, KDisjointPaths,
#               MinMaxUtilization, the Fig 2a sweep as
#               BenchmarkExperiment/fig2a) → BENCH_routing.json
#   snapshot  — the snapshot engine at paper scale: one full At() rebuild vs
#               one incremental Advance() step at 1-second resolution
#               → BENCH_snapshot.json
#   topo      — ISL motif construction cost at Starlink scale (one build per
#               motif, including the demand optimizer's greedy placement)
#               → BENCH_topo.json
#   telemetry — the observability cost model: span and event emission with
#               telemetry disabled (one atomic load, no allocation) and
#               enabled, plus the routing kernel with and without telemetry;
#               BenchmarkSearch must stay within noise of the kernel
#               baselines in BENCH_routing.json → BENCH_telemetry.json
#   serve     — the batched serving path: one-time oracle build cost per
#               snapshot (BenchmarkOracleBuild) against the per-pair batched
#               query cost it buys (BenchmarkOracleBatch — must stay well
#               under 100µs — and BenchmarkOracleQuery, the bare distance
#               read) → BENCH_serve.json
#   all       — all of the above (default)
#
# The label names the run inside the trajectory file (default "current");
# rerunning with the same label replaces that run in place, so each file keeps
# one entry per milestone. Snapshot benchmarks run with -count 3; benchjson
# keeps the fastest sample per benchmark, so a noisy neighbour can only be
# filtered out, never flatter the result.
set -eu
cd "$(dirname "$0")/.."

TARGET="${1:-all}"
LABEL="${2:-current}"

run_routing() {
	# The Fig 2a sweep is one row of BenchmarkExperiment (it was
	# BenchmarkFig2aMinRTT in the entries recorded before the experiment
	# table); a sub-benchmark pattern would hide the kernel benchmarks, so
	# it runs on its own.
	PATTERN='^(BenchmarkDijkstra|BenchmarkShortestPath|BenchmarkKDisjoint|BenchmarkMinMaxUtilization)$'
	{
		go test -run '^$' -bench "$PATTERN" -benchmem -count 1 \
			./internal/graph ./internal/routing
		go test -run '^$' -bench '^BenchmarkExperiment$/^fig2a$' -benchmem -count 1 .
	} | go run ./scripts/benchjson -label "$LABEL" -out BENCH_routing.json
}

run_snapshot() {
	# Three interleaved rounds rather than -count 3: with -count, all
	# BuildAt samples land minutes before all Advance samples, and on a
	# shared machine the noise phase can shift in between, skewing the
	# rebuild/advance ratio either way. Alternating rounds keep each
	# pair's measurement windows seconds apart; benchjson's min-aggregation
	# then picks each side's cleanest round.
	PATTERN='^(BenchmarkBuildAt|BenchmarkAdvance)$'
	for round in 1 2 3; do
		go test -run '^$' -bench "$PATTERN" -benchmem -benchtime 2s \
			./internal/graph
	done |
		go run ./scripts/benchjson -label "$LABEL" -out BENCH_snapshot.json
}

run_topo() {
	go test -run '^$' -bench '^BenchmarkMotifBuild$' -benchmem -count 1 \
		./internal/topo |
		go run ./scripts/benchjson -label "$LABEL" -out BENCH_topo.json
}

run_telemetry() {
	PATTERN='^(BenchmarkSpanDisabled|BenchmarkSpanEnabled|BenchmarkSpanEnabledWithRecorder|BenchmarkHistogramObserve|BenchmarkEventDisabled|BenchmarkEventEnabled|BenchmarkSearch|BenchmarkSearchTelemetryEnabled)$'
	go test -run '^$' -bench "$PATTERN" -benchmem -count 1 \
		./internal/telemetry ./internal/graph |
		go run ./scripts/benchjson -label "$LABEL" -out BENCH_telemetry.json
}

run_serve() {
	PATTERN='^(BenchmarkOracleBuild|BenchmarkOracleQuery|BenchmarkOracleBatch)$'
	go test -run '^$' -bench "$PATTERN" -benchmem -count 1 \
		./internal/oracle |
		go run ./scripts/benchjson -label "$LABEL" -out BENCH_serve.json
}

case "$TARGET" in
routing) run_routing ;;
snapshot) run_snapshot ;;
topo) run_topo ;;
telemetry) run_telemetry ;;
serve) run_serve ;;
all)
	run_routing
	run_snapshot
	run_topo
	run_telemetry
	run_serve
	;;
*)
	echo "usage: scripts/bench.sh [routing|snapshot|topo|telemetry|serve|all] [label]" >&2
	exit 2
	;;
esac
