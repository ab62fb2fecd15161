#!/usr/bin/env bash
# fresque_cli round trip, at --shards=1 and --shards=4:
#   generate -> ingest (durable, admission-capped, static batching,
#   metrics dump) -> inspect -> verify -> query -> recover -> query on the
#   recovered snapshot set.
#
# Usage: tools/cli_roundtrip_test.sh <path-to-fresque_cli>
#
# Asserts that every ingest flag takes effect at both shard counts, that
# the conservation ledger balances, that recovery returns the same
# matches, that no command reports an ignored flag, that a bad key hex
# exits 1, and that an unsharded (top-level) data dir is refused with a
# message naming shard-0/.
set -euo pipefail

CLI="${1:?usage: $0 <fresque_cli>}"
[[ -x "$CLI" ]] || { echo "missing $CLI" >&2; exit 2; }
CLI="$(cd "$(dirname "$CLI")" && pwd)/$(basename "$CLI")"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $*" >&2; exit 1; }

# Runs the CLI, appending stderr to err.log; fails the test on a non-zero
# exit unless the caller expects one.
run() {
  "$CLI" "$@" 2>>err.log || fail "fresque_cli $* exited $?"
}

matches() { sed -n 's/^\([0-9]*\) records match.*/\1/p' "$1"; }

LINES=20000
LO=1230770000
HI=1233020000
run generate gowalla "$LINES" lines.txt >/dev/null

for N in 1 4; do
  echo "== --shards=$N"
  SH=(--shards="$N")
  run ingest gowalla lines.txt "snap$N.bin" 1.0 2 5000 "${SH[@]}" \
    --data-dir="dd$N" --fsync=never --admission-rps=5000 \
    --static-batching --metrics-out="m$N.json" >"ingest$N.log"
  grep -q "conservation: $LINES ingested == $LINES routed" "ingest$N.log" \
    || { cat "ingest$N.log"; fail "conservation ledger does not balance"; }
  shed=$(sed -n 's/^admission: \([0-9]*\) line(s) shed.*/\1/p' "ingest$N.log")
  [[ -n "$shed" && "$shed" -gt 0 ]] \
    || { cat "ingest$N.log"; fail "--admission-rps shed nothing at N=$N"; }
  [[ -s "m$N.json" ]] || fail "--metrics-out wrote no m$N.json"
  grep -q '"ingest.shed_records"' "m$N.json" \
    || fail "metrics dump lacks ingest.shed_records"
  for ((i = 0; i < N; i++)); do
    [[ -s "snap$N.bin.shard-$i" ]] || fail "missing snap$N.bin.shard-$i"
    [[ -f "dd$N/shard-$i/MANIFEST" ]] || fail "no MANIFEST in dd$N/shard-$i"
  done

  run inspect "snap$N.bin" >"inspect$N.log"
  grep -q "shards: $N" "inspect$N.log" || fail "inspect does not see $N shards"

  run verify gowalla "snap$N.bin" "${SH[@]}" >"verify$N.log"
  grep -q " 0 failed" "verify$N.log" || fail "verify reported failures"

  run query gowalla "snap$N.bin" "$LO" "$HI" "${SH[@]}" >"query$N.log"
  grep -q "^ledger:" "query$N.log" || fail "query printed no fan-out ledger"

  run recover gowalla "dd$N" "rec$N.bin" "${SH[@]}" >"recover$N.log"
  run query gowalla "rec$N.bin" "$LO" "$HI" "${SH[@]}" >"requery$N.log"
  before=$(matches "query$N.log")
  after=$(matches "requery$N.log")
  [[ -n "$before" && "$before" -gt 0 ]] || fail "query matched nothing"
  [[ "$before" == "$after" ]] \
    || fail "recovery changed the answer at N=$N: $before vs $after"
  echo "   $before matches before and after recovery, $shed line(s) shed"
done

if grep -qi "ignored" err.log; then
  cat err.log
  fail "a flag was reported as ignored"
fi

echo "== bad key hex"
for cmd in "ingest gowalla lines.txt bad.bin 1.0 2 5000 nothex" \
           "query gowalla snap1.bin $LO $HI nothex" \
           "verify gowalla snap1.bin nothex"; do
  code=0
  # shellcheck disable=SC2086
  "$CLI" $cmd >/dev/null 2>bad.log || code=$?
  [[ "$code" == 1 ]] || fail "$cmd exited $code, want 1"
  grep -q "bad key hex" bad.log || fail "$cmd did not name the bad key"
done

echo "== unsharded top-level data dir"
for legacy in MANIFEST wal-0000000001.log; do
  rm -rf legacy && mkdir legacy && echo x >"legacy/$legacy"
  for cmd in "recover gowalla legacy" \
             "ingest gowalla lines.txt l.bin 1.0 2 5000 --data-dir=legacy"; do
    code=0
    # shellcheck disable=SC2086
    "$CLI" $cmd >/dev/null 2>legacy.log || code=$?
    [[ "$code" == 1 ]] || fail "$cmd on a top-level $legacy exited $code"
    grep -q "shard-0/" legacy.log \
      || { cat legacy.log; fail "$cmd did not point at shard-0/"; }
  done
done

echo "OK: round trip at 1 and 4 shards, bad keys and legacy layouts refused"
