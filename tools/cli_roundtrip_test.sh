#!/usr/bin/env bash
# fresque_cli round trip, at --shards=1 and --shards=4:
#   generate -> ingest (durable, admission-capped, metrics dump) ->
#   wal-dump -> inspect -> verify -> query -> recover -> query on the
#   recovered snapshot set.
#
# Usage: tools/cli_roundtrip_test.sh <path-to-fresque_cli>
#
# Asserts that every ingest flag takes effect at both shard counts (each
# install snapshots, so wal-dump lists several sealed files), that
# the conservation ledger balances, that inspect and recover count the
# publications ingest made, that recovery returns the same
# matches, that a repeated query under a deadline returns the same
# matches and reports its latency, that no command reports an ignored
# flag, that a bad key hex exits 1, that a flag given to a command that
# does not read it, an unknown or removed flag, a zero count (flag or
# interval_records) and an out-of-range --flight-capacity exit 1 naming
# the setting, that a removed command prints the usage, and that an
# unsharded (top-level) data dir is refused with a message naming
# shard-0/.
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
    --data-dir="dd$N" --fsync=never --snapshot-every=1 --admission-rps=5000 \
    --metrics-out="m$N.prom" >"ingest$N.log"
  grep -q "conservation: $LINES ingested == $LINES routed" "ingest$N.log" \
    || { cat "ingest$N.log"; fail "conservation ledger does not balance"; }
  shed=$(sed -n 's/^admission: \([0-9]*\) line(s) shed.*/\1/p' "ingest$N.log")
  [[ -n "$shed" && "$shed" -gt 0 ]] \
    || { cat "ingest$N.log"; fail "--admission-rps shed nothing at N=$N"; }
  [[ -s "m$N.prom" ]] || fail "--metrics-out wrote no m$N.prom"
  # The pipeline's rows ride every dump, zero counts included.
  for name in fresque_ingest_shed_records fresque_collector_parse_errors \
      fresque_shard_0_records_in fresque_cloud_records_rejected; do
    grep -q "^$name " "m$N.prom" || fail "metrics dump lacks $name"
  done
  grep -qE '^fresque_ingest_records_in [1-9][0-9]*$' "m$N.prom" \
    || fail "metrics dump has no positive fresque_ingest_records_in"
  for ((i = 0; i < N; i++)); do
    [[ -s "snap$N.bin.shard-$i" ]] || fail "missing snap$N.bin.shard-$i"
    [[ -f "dd$N/shard-$i/MANIFEST" ]] || fail "no MANIFEST in dd$N/shard-$i"
  done
  run wal-dump "dd$N/shard-0" >"waldump$N.log"
  files=$(grep -c '^  snapshot=' "waldump$N.log" || true)
  [[ "$files" -ge 2 ]] \
    || { cat "waldump$N.log"; fail "--snapshot-every=1 left $files snapshot file(s) at N=$N"; }

  run inspect "snap$N.bin" >"inspect$N.log"
  grep -q "shards: $N" "inspect$N.log" || fail "inspect does not see $N shards"
  # The interval opened at the last publish is not a publication.
  pubs=$(sed -n 's/.* \([0-9][0-9]*\) publication(s), epsilon .*/\1/p' "ingest$N.log")
  [[ -n "$pubs" ]] || { cat "ingest$N.log"; fail "ingest printed no publication count"; }
  grep -qx "  publications: $pubs" "inspect$N.log" \
    || { cat "inspect$N.log"; fail "inspect does not count the $pubs publication(s) ingest made at N=$N"; }

  run verify gowalla "snap$N.bin" "${SH[@]}" >"verify$N.log"
  grep -qE "^[1-9][0-9]* verified, 0 failed" "verify$N.log" \
    || { cat "verify$N.log"; fail "verify reported failures or verified nothing"; }

  run query gowalla "snap$N.bin" "$LO" "$HI" "${SH[@]}" >"query$N.log"
  grep -q "^ledger:" "query$N.log" || fail "query printed no fan-out ledger"
  run query gowalla "snap$N.bin" "$LO" "$HI" "${SH[@]}" --repeat=3 \
    --query-deadline-ms=60000 >"repeat$N.log"
  grep -q "^latency over 3 runs" "repeat$N.log" \
    || { cat "repeat$N.log"; fail "--repeat=3 reported no latency at N=$N"; }
  [[ "$(matches "repeat$N.log")" == "$(matches "query$N.log")" ]] \
    || fail "--repeat/--query-deadline-ms changed the answer at N=$N"

  run recover gowalla "dd$N" "rec$N.bin" "${SH[@]}" >"recover$N.log"
  grep -q "^recovered $pubs publication(s)" "recover$N.log" \
    || { cat "recover$N.log"; fail "recover does not count the $pubs publication(s) ingest made at N=$N"; }
  run query gowalla "rec$N.bin" "$LO" "$HI" "${SH[@]}" >"requery$N.log"
  before=$(matches "query$N.log")
  after=$(matches "requery$N.log")
  [[ -n "$before" && "$before" -gt 0 ]] || fail "query matched nothing"
  [[ "$before" == "$after" ]] \
    || fail "recovery changed the answer at N=$N: $before vs $after"
  echo "   $before matches before and after recovery, $shed line(s) shed, $files snapshot files"
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

echo "== flags a command does not read, unknown or removed flags and commands, zero counts, out-of-range values"
# A zero interval used to publish once per line; a few lines keep a
# regression of that case small.
head -n 300 lines.txt >few.txt
# Each case: the command line, then the text its error must contain.
while IFS='|' read -r cmd want; do
  code=0
  # shellcheck disable=SC2086
  "$CLI" $cmd </dev/null >/dev/null 2>flag.log || code=$?
  [[ "$code" == 1 ]] || fail "$cmd exited $code, want 1"
  grep -qF -- "$want" flag.log || { cat flag.log; fail "$cmd: no '$want'"; }
done <<CASES
query gowalla snap1.bin $LO $HI --data-dir=/nonexistent --admission-rps=5 --obs-addr=0 --snapshot-every=3|--data-dir does not apply to \`query\`
verify gowalla snap1.bin --metrics-out=mv.json --query-deadline-ms=9|--metrics-out does not apply to \`verify\`
query gowalla snap1.bin $LO $HI --repeat=0|--repeat wants a positive count
query gowalla snap1.bin $LO $HI --query-threads=2|unknown flag --query-threads
ingest gowalla few.txt sw.bin 1.0 2 5000 --shed-watermarks=0.5:0.9|unknown flag --shed-watermarks
metrics-dump m1.prom|usage:
ingest gowalla few.txt zero.bin 1.0 2 0|interval_records wants a positive count
ingest gowalla lines.txt fc.bin 1.0 2 5000 --flight-capacity=10|--flight-capacity wants 64 to 1048576 events
CASES
[[ ! -e mv.json ]] || fail "verify wrote a metrics file it never reads the flag for"

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

echo "OK: round trip at 1 and 4 shards; bad keys, misplaced, unknown and removed flags and commands, zero counts, out-of-range values and legacy layouts refused"
