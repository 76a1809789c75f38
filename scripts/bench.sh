#!/bin/sh
# Run a benchmark suite and record it in its trajectory JSON file.
#
# usage: scripts/bench.sh [routing|topo|telemetry|serve|all] [label]
#
# Targets:
#   routing   — the routing hot path (the full-tree Search, ShortestPath,
#               KDisjointPaths, MinMaxUtilization, the Fig 2a sweep as
#               BenchmarkExperiment/fig2a) → BENCH_routing.json
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
# one entry per milestone.
set -eu
cd "$(dirname "$0")/.."

TARGET="${1:-all}"
LABEL="${2:-current}"

run_routing() {
	# The Fig 2a sweep is one row of BenchmarkExperiment (it was
	# BenchmarkFig2aMinRTT in the entries recorded before the experiment
	# table); a sub-benchmark pattern would hide the kernel benchmarks, so
	# it runs on its own. BenchmarkSearch times the full tree that the
	# entries before the Dijkstra wrapper's removal read as BenchmarkDijkstra.
	PATTERN='^(BenchmarkSearch|BenchmarkShortestPath|BenchmarkKDisjoint|BenchmarkMinMaxUtilization)$'
	{
		go test -run '^$' -bench "$PATTERN" -benchmem -count 1 \
			./internal/graph ./internal/core
		go test -run '^$' -bench '^BenchmarkExperiment$/^fig2a$' -benchmem -count 1 ./internal/core
	} | go run ./scripts/benchjson -label "$LABEL" -out BENCH_routing.json
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
topo) run_topo ;;
telemetry) run_telemetry ;;
serve) run_serve ;;
all)
	run_routing
	run_topo
	run_telemetry
	run_serve
	;;
*)
	echo "usage: scripts/bench.sh [routing|topo|telemetry|serve|all] [label]" >&2
	exit 2
	;;
esac
