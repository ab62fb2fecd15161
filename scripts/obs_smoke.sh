#!/usr/bin/env bash
# Live-observability endpoint smoke (DESIGN.md §16; CI job obs-smoke).
#
# Usage: scripts/obs_smoke.sh [build-dir]
#
# Starts a real `fresque_cli ingest` with --obs-addr on an ephemeral
# port, then proves the whole introspection surface while the pipeline
# is ingesting:
#   1. /healthz and /readyz answer 200,
#   2. /metrics is Prometheus text and carries the pipeline families,
#   3. /statusz is JSON with topology + view-epoch fields and the
#      one-row shards table (the default pipeline is one shard),
#   4. /flightz is JSON with recorded flight events,
#   5. SIGTERM flushes the flight recorder to stderr AND to
#      <data-dir>/flight.dump before the process dies.
#
# Works under ASan/UBSan builds (the CI job runs it that way); the
# SIGTERM death via the re-raised default handler is the expected exit.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD="${1:-build}"
CLI="$BUILD/tools/fresque_cli"
[[ -x "$CLI" ]] || { echo "missing $CLI — build fresque_cli first" >&2; exit 2; }

WORK="$(mktemp -d)"
PID=""
cleanup() {
  [[ -n "$PID" ]] && kill -9 "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# Enough lines that ingest is still running while we scrape, even on a
# fast machine; the run is cut short by SIGTERM either way.
"$CLI" generate nasa 2000000 "$WORK/lines.txt" >/dev/null

"$CLI" ingest nasa "$WORK/lines.txt" "$WORK/snapshot.bin" 0.1 2 100000 \
  --data-dir="$WORK/dd" --fsync=never \
  --obs-addr=127.0.0.1:0 --slo-e2e-ms=50 --flight-capacity=1024 \
  >"$WORK/out.log" 2>"$WORK/err.log" &
PID=$!

# The CLI prints the bound ephemeral port once the server is up.
PORT=""
for _ in $(seq 100); do
  PORT=$(sed -n 's/^obs: listening on http:\/\/[0-9.]*:\([0-9]*\).*/\1/p' \
    "$WORK/out.log" | head -n1)
  [[ -n "$PORT" ]] && break
  kill -0 "$PID" 2>/dev/null || { cat "$WORK/err.log" >&2; fail "ingest died before the obs server came up"; }
  sleep 0.1
done
[[ -n "$PORT" ]] || fail "obs listen line never appeared in out.log"
BASE="http://127.0.0.1:$PORT"
echo "== obs server on $BASE"

curl -fsS "$BASE/healthz" | grep -q "ok" || fail "/healthz not ok"
curl -fsS "$BASE/readyz"  | grep -q "ready" || fail "/readyz not ready"

# The pipeline families appear once records flow and the sampler has
# folded at least once, so poll rather than assert the first scrape.
METRICS=""
for _ in $(seq 100); do
  METRICS="$(curl -fsS "$BASE/metrics")"
  echo "$METRICS" | grep -q "^fresque_cloud_records_in " && break
  METRICS=""
  sleep 0.2
done
[[ -n "$METRICS" ]] || fail "/metrics never showed fresque_cloud_records_in"
echo "$METRICS" | grep -q "^# TYPE fresque_slo_e2e_target_ms gauge" \
  || fail "/metrics missing slo target TYPE line"

STATUSZ="$(curl -fsS "$BASE/statusz")"
for field in '"view_epoch"' '"nodes"' '"wal"' '"build"' '"slo"'; do
  echo "$STATUSZ" | grep -q "$field" || fail "/statusz missing $field"
done
echo "$STATUSZ" | grep -qF '"shards":[{"shard":0' \
  || fail "/statusz missing the shards table"
if echo "$STATUSZ" | grep -qF '"shard":1'; then
  fail "/statusz shards table has more than one row for --shards=1"
fi

curl -fsS "$BASE/flightz" | grep -q '"events"' || fail "/flightz has no events array"

# Exercise 404/405 handling while we are here.
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/nope")
[[ "$code" == "404" ]] || fail "expected 404 for unknown path, got $code"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/metrics")
[[ "$code" == "405" ]] || fail "expected 405 for POST, got $code"

echo "== endpoints OK; sending SIGTERM"
kill -TERM "$PID"
DEAD=0
for _ in $(seq 100); do
  kill -0 "$PID" 2>/dev/null || { DEAD=1; break; }
  sleep 0.1
done
[[ "$DEAD" == 1 ]] || fail "process survived SIGTERM"
wait "$PID" 2>/dev/null || true
PID=""

grep -q "FLIGHT RECORDER DUMP" "$WORK/err.log" \
  || fail "no flight-recorder dump on stderr after SIGTERM"
[[ -s "$WORK/dd/flight.dump" ]] || fail "no flight.dump written to the data dir"
grep -q "FLIGHT RECORDER DUMP" "$WORK/dd/flight.dump" \
  || fail "flight.dump missing dump header"

echo "OK: all endpoints served and SIGTERM flushed the flight recorder"
