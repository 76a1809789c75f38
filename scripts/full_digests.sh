#!/usr/bin/env bash
# Check the paper-size runs against their recorded data digests.
#
# usage: scripts/full_digests.sh [digest-file]
#
# For each `<experiment> <digest>` line of the digest file (default
# testdata/full_digests.txt; `#` lines are comments) it runs
# `leosim -scale full -snapshots 1 -json <experiment>` and compares the first
# 16 hex digits of the sha256 of the envelope's `data`, serialised with sorted
# keys, with the recorded digest. It fails on the first mismatch or failed
# run. fig2a, fig4, fig5 and fig6 take about 40 s on 2 cores.
set -euo pipefail

digests="${1:-testdata/full_digests.txt}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/leosim" ./cmd/leosim

checked=0
while read -r exp want; do
	case "$exp" in '' | '#'*) continue ;; esac
	"$tmp/leosim" -scale full -snapshots 1 -json -quiet "$exp" </dev/null >"$tmp/$exp.json"
	got="$(python3 -c 'import hashlib, json, sys
data = json.load(open(sys.argv[1]))["data"]
print(hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16])' "$tmp/$exp.json")"
	if [ "$got" != "$want" ]; then
		echo "full_digests: $exp data digest $got, recorded $want" >&2
		exit 1
	fi
	echo "full_digests: $exp $got ok"
	checked=$((checked + 1))
done <"$digests"
if [ "$checked" -eq 0 ]; then
	echo "full_digests: no digest in $digests" >&2
	exit 1
fi
