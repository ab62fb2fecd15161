#!/usr/bin/env python3
"""Compares two fresque_bench result sets, or smoke-tests the harness.

  compare.py A B
      A and B are directories written by `run.sh --set`. For every workload
      and end-to-end metric in BENCHMARK.json it reports B against A:
        better / same / worse  the median moved by more than the bound
                               (better, worse) or not (same);
        unresolved             a set's quartile spread, (q3 - q1) / median,
                               exceeds the bound, unless every run of B
                               reads better than every run of A.
      One row per workload. Exits 1 if anything is worse.

  compare.py --smoke BIN
      Runs BIN on every workload shrunk 100x, untraced and traced. Fails
      unless each run exits 0, reports correct with no failed operations,
      and prints exactly the metrics BENCHMARK.json names for its mode.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def load_set(directory):
    """{workload: [result, ...]} from DIR/<workload>.<i>.txt."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".txt"):
            continue
        with open(os.path.join(directory, name)) as f:
            result = last_json_line(f.read())
        if result is not None:
            runs.setdefault(name.split(".")[0], []).append(result)
    return runs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def verdict(a, b, bound, lower_is_better):
    sign = -1 if lower_is_better else 1
    med_a = statistics.median(a)
    change = (statistics.median(b) - med_a) / med_a
    if max(spread(a), spread(b)) > bound:
        if lower_is_better:
            every_better = max(b) < min(a)
        else:
            every_better = min(b) > max(a)
        return ("better" if every_better else "unresolved"), change
    if sign * change < -bound:
        return "worse", change
    if sign * change > bound:
        return "better", change
    return "same", change


def compare(dir_a, dir_b):
    spec = load_spec()
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    any_worse = False
    for w in spec["workloads"]:
        name = w["name"]
        a, b = set_a.get(name, []), set_b.get(name, [])
        if not a or not b:
            print(f"{name:16} missing runs (A {len(a)}, B {len(b)})")
            any_worse = True
            continue
        cells = []
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            v, change = verdict(va, vb, m["bound"], m["better"] == "lower")
            any_worse |= v == "worse"
            cells.append(f"{m['name']}={v}({change:+.1%})")
        ok_runs = all(r["correct"] and r["failed"] == 0 for r in a + b)
        if not ok_runs:
            cells.append("INCORRECT-RUNS")
            any_worse = True
        print(f"{name:16} " + "  ".join(cells))
    return 1 if any_worse else 0


def smoke(binary):
    spec = load_spec()
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [binary, "--workload", w["name"], "--seed", "1",
                   "--seconds", str(spec["run_seconds"]), "--trace",
                   str(trace), "--smoke", "--data-dir",
                   os.path.join(".bench_build", "fresque_bench_data")]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
            problems = check_smoke_run(proc, wanted[trace])
            label = f"{w['name']} --trace {trace}"
            print(f"{label}: {'FAILED' if problems else 'ok'}")
            failures += [f"{label}: {p}" for p in problems]
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


def check_smoke_run(proc, wanted_metrics):
    try:
        result = last_json_line(proc.stdout)
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None:
        return [f"exit {proc.returncode}\n{proc.stdout[-2000:]}"
                f"{proc.stderr[-2000:]}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    expected = {m["name"]: m["unit"] for m in wanted_metrics}
    printed = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if printed != expected:
        problems.append(f"printed {sorted(printed.items())}, "
                        f"BENCHMARK.json names {sorted(expected.items())}")
    return problems


def main(argv):
    if len(argv) == 3 and argv[1] == "--smoke":
        return smoke(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
