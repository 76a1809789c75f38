#!/bin/sh
# Regenerate every figure and extension of EXPERIMENTS.md.
#
# usage: scripts/regenerate.sh [reduced|large|full] [outdir]
#
# "reduced" (default) finishes in about a minute on a laptop; "large" takes
# ~15 minutes on one core; "full" is the paper's exact sizing, whose `all`
# took 594 s on 2 cores. scripts/full_digests.sh checks its one-snapshot
# fig2a, fig4 and fig6 digests. ("tiny" is not supported here: its 60-city set cannot route the
# Delhi–Sydney pair under bent-pipe, which Fig 8 requires.)
set -eu

SCALE="${1:-reduced}"
case "$SCALE" in
reduced | large | full) ;;
*)
	echo "unsupported scale '$SCALE' (want reduced|large|full)" >&2
	exit 2
	;;
esac
OUT="${2:-results/$SCALE}"
mkdir -p "$OUT"

# run <name> <args...>: execute the CLI, fail the script on error, and keep
# a copy of the output. (No pipelines: a pipe to tee would mask failures
# under plain POSIX sh.)
run() {
	name="$1"
	shift
	echo "== $name =="
	go run ./cmd/leosim "$@" >"$OUT/$name.txt"
	cat "$OUT/$name.txt"
}

run figures -scale "$SCALE" all
run extensions -scale "$SCALE" ext
run kuiper-fig4 -scale "$SCALE" -constellation kuiper fig4

echo "== machine-readable envelopes =="
for exp in fig2a fig4 fig5 fig6 fig8 disconnected; do
	go run ./cmd/leosim -scale "$SCALE" -json "$exp" >"$OUT/$exp.json"
done

echo "== geojson snapshot =="
go run ./cmd/leosim -scale "$SCALE" geojson >"$OUT/snapshot.geojson"

echo "done: $OUT"
