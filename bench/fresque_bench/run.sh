#!/usr/bin/env bash
# Builds fresque_bench (Release, under .bench_build/ at the repository root)
# and runs it.
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run of one workload; the last stdout line is the JSON result.
#   run.sh --set DIR [--runs N] [--seed N]
#       N runs (default 3) of every workload, each in its own process,
#       logs saved as DIR/<workload>.<i>.txt. Compare two sets with
#       compare.py.
#   run.sh --traced DIR [--seed N]
#       One per-layer (--trace 1) run of every workload into DIR.
#
# Run length comes from BENCHMARK.json's run_seconds.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/fresque_bench"
data="$root/.bench_build/fresque_bench_data"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target fresque_bench -j 4 >&2
bin="$build/fresque_bench"

mode="${1:-}"
if [[ "$mode" != "--set" && "$mode" != "--traced" ]]; then
  exec "$bin" --data-dir "$data" "$@"
fi

dir="${2:?run.sh $mode needs an output directory}"
shift 2
runs=3
seed=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done
trace=0
if [[ "$mode" == "--traced" ]]; then
  trace=1
  runs=1
fi

read -r seconds workloads < <(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))
' "$root/BENCHMARK.json")
mkdir -p "$dir"
for ((i = 1; i <= runs; i++)); do
  for w in $workloads; do
    out="$dir/$w.$i.txt"
    echo "== $w run $i -> $out" >&2
    "$bin" --data-dir "$data" --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" > "$out"
    tail -n 1 "$out" >&2
  done
done
