#!/usr/bin/env bash
# Chaos smoke: boot `leosim serve` with seeded build-failure injection, then
# drive it with the backoff client from examples/serve. Passes when ≥95% of
# queries are answered despite a 30% injected build-failure rate, every body
# decodes as complete JSON (the client fails hard on truncation), the repeat
# pass returns bit-identical answers, and /metrics shows at least one build
# that failed (the cache_errors gauge ≥ 1) — a storm with nothing injected
# proves nothing. Run from the repo root; CI runs it on every push.
#
#   ./scripts/chaos_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18080}"
TMP="$(mktemp -d)"
BIN="$TMP/leosim"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

go build -o "$BIN" ./cmd/leosim

"$BIN" serve -addr "127.0.0.1:$PORT" -scale tiny -log-level warn \
  -breaker-cooldown 100ms -chaos-fail 0.30 -chaos-seed 1234 &
SERVER_PID=$!

echo "chaos_smoke: waiting for server on port $PORT"
for _ in $(seq 1 150); do
  if curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "chaos_smoke: server exited before becoming ready" >&2
    exit 1
  fi
  sleep 0.2
done

go run ./examples/serve -addr "127.0.0.1:$PORT" -requests 192 -min-success 0.95

echo "chaos_smoke: server-side view of the storm:"
curl -fsS "http://127.0.0.1:$PORT/metrics" >"$TMP/metrics.json"
python3 - "$TMP/metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
print(json.dumps({"counters": m["server"]["counters"], "gauges": m["server"]["gauges"]}, indent=2))
if m["server"]["gauges"]["cache_errors"] < 1:
    sys.exit("chaos_smoke: FAIL: no snapshot build failed, so the storm injected nothing")
EOF

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
echo "chaos_smoke: PASS"
