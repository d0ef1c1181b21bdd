#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every metric: the median of its per-run values, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the quartile distance as
a share of the median, and the number of runs.  Where BENCHMARK.json gives
the metric a bound, the spread is compared with it.

Run from the repository root; run ``i`` uses seed ``i``:

    python3 perfbench/spread.py --workload kn_sync --runs 10
    python3 perfbench/spread.py --workload served --runs 5 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(argv, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"run failed ({out.returncode}): {' '.join(argv)}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    command = spec["command"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    units = {}
    incorrect = 0
    for seed in range(1, args.runs + 1):
        result = run_once(command, args.workload, seed, spec["run_seconds"], args.trace)
        if not result["correct"]:
            incorrect += 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    print(f"{'metric':34} {'unit':>12} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'bound':>6} {'runs':>4}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and share > bound:
            flag = "  OVER BOUND"
        elif bound is not None and share > bound / 3:
            flag = "  over bound/3"
        print(f"{name:34} {units[name]:>12} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{share:8.4f} {bound if bound is not None else '-':>6} {len(vals):4}{flag}")
    if incorrect:
        sys.exit(f"{incorrect} run(s) reported correct=false")


if __name__ == "__main__":
    main()
