#!/usr/bin/env bash
# Sharded scale-out smoke (DESIGN.md §17; CI job shard-smoke).
#
# Usage: scripts/shard_smoke.sh [build-dir]
#
# Drives a real 4-shard `fresque_cli ingest --shards=4` with the obs
# server attached, then proves the sharded surface end to end:
#   1. /statusz renders the per-shard table (one row per shard) and
#      /metrics carries the shard.* families while ingest runs,
#   2. ingest exits 0 and prints the conservation ledger — every line
#      routed to exactly one shard, router total == ingested total — and
#      the admission shed count (--admission-rps is a per-shard cap; no
#      flag may be reported as ignored),
#   3. one snapshot per shard lands at <snapshot>.shard-<i>,
#   4. a full-domain `query --shards=4` fans out to all 4 shards with a
#      balanced per-shard ledger (exit 2 on ledger mismatch),
#   5. a narrow in-slice query probes exactly 1 shard and prunes 3.
#
# Works under ASan/UBSan builds (the CI job runs it that way).
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

LINES=120000
"$CLI" generate nasa "$LINES" "$WORK/lines.txt" >/dev/null

"$CLI" ingest nasa "$WORK/lines.txt" "$WORK/snapshot.bin" 0.1 2 20000 \
  --shards=4 --shard-by=range \
  --data-dir="$WORK/dd" --fsync=never --admission-rps=100000000 \
  --obs-addr=127.0.0.1:0 \
  >"$WORK/out.log" 2>"$WORK/err.log" &
PID=$!

# The CLI prints the bound ephemeral port once the obs server is up
# (before the ingest loop starts, so the scrape below cannot lose the
# race against a fast ingest).
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
echo "== 4-shard ingest up, obs on $BASE"

# 1. /statusz per-shard table: one row per shard, with the ingress and
# view-epoch fields the dashboard keys on.
STATUSZ="$(curl -fsS "$BASE/statusz")"
for needle in '"shards":[{"shard":0' '"shard":1' '"shard":2' '"shard":3' \
              '"ingress_capacity"' '"ingress_watermark"' '"view_epoch"'; do
  echo "$STATUSZ" | grep -qF "$needle" || fail "/statusz missing $needle"
done

# shard.* families on the Prometheus scrape (router counter is hot-path,
# present as soon as the first batch routes; poll for it).
METRICS=""
for _ in $(seq 100); do
  METRICS="$(curl -fsS "$BASE/metrics" || true)"
  echo "$METRICS" | grep -q "^fresque_shard_router_records " && break
  METRICS=""
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
[[ -n "$METRICS" ]] || fail "/metrics never showed fresque_shard_router_records"
echo "$METRICS" | grep -q "^fresque_shard_count 4" \
  || fail "/metrics missing fresque_shard_count 4"
echo "== /statusz shard table and shard.* metrics OK"

# 2. Ingest must finish cleanly and print the conservation ledger.
wait "$PID" || { cat "$WORK/err.log" >&2; fail "sharded ingest exited non-zero"; }
PID=""
grep -q "exactly-once placement" "$WORK/out.log" \
  || fail "ingest output missing the conservation ledger line"
grep -q "conservation: $LINES ingested == $LINES routed" "$WORK/out.log" \
  || { cat "$WORK/out.log"; fail "conservation ledger does not balance"; }
grep -q "^admission: [0-9]* line(s) shed" "$WORK/out.log" \
  || { cat "$WORK/out.log"; fail "ingest output missing the admission shed count"; }
if grep -qi "ignored" "$WORK/err.log"; then
  cat "$WORK/err.log"
  fail "a flag was reported as ignored"
fi

# 3. One snapshot per shard.
for i in 0 1 2 3; do
  [[ -s "$WORK/snapshot.bin.shard-$i" ]] || fail "missing snapshot.bin.shard-$i"
done
echo "== conservation ledger balanced ($LINES records), 4 shard snapshots"

# 4. Full-domain fan-out: all 4 shards probed, ledger must balance
# (the CLI exits 2 on a ledger mismatch).
"$CLI" query nasa "$WORK/snapshot.bin" 0 3503104 --shards=4 --shard-by=range \
  >"$WORK/q_full.log" 2>&1 || { cat "$WORK/q_full.log"; fail "full-domain sharded query failed"; }
grep -q "fan-out: 4 shard(s) probed, 0 pruned" "$WORK/q_full.log" \
  || { cat "$WORK/q_full.log"; fail "full-domain query did not probe all 4 shards"; }
grep -q "ledger:" "$WORK/q_full.log" || fail "query output missing the fan-out ledger"

# 5. Narrow in-slice query: placement pruning must skip 3 of 4 shards.
"$CLI" query nasa "$WORK/snapshot.bin" 1000 2000 --shards=4 --shard-by=range \
  >"$WORK/q_narrow.log" 2>&1 || { cat "$WORK/q_narrow.log"; fail "narrow sharded query failed"; }
grep -q "fan-out: 1 shard(s) probed, 3 pruned" "$WORK/q_narrow.log" \
  || { cat "$WORK/q_narrow.log"; fail "narrow query did not prune 3 shards"; }

echo "OK: 4-shard ingest conserved every record, fan-out + pruning ledgers balanced"
