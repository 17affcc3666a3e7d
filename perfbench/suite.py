#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print every metric by name.

From the root of a source checkout:

    python3 perfbench/suite.py                      # seed 1, both runs per workload
    python3 perfbench/suite.py --seeds 1-10 --no-trace --workloads sweep-q5

Each run is a fresh ``perfbench/run.py`` process.  For one seed the output is
each end-to-end metric, each per-layer metric and the tracing overhead (traced
minus untraced ``wall_s``).  For several seeds it is, per metric, the median
and the spread (distance between first and third quartile over the median),
the figure BENCHMARK.json's bounds are judged against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("FAIL", "check")):
            print(f"  {line}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1", help="e.g. 7, 1,2,3 or 1-10")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    args = parser.parse_args()
    seeds = seed_list(args.seeds)

    all_correct = True
    for workload in args.workloads.split(","):
        walls = {}
        for trace in (0,) if args.no_trace else (0, 1):
            results = [run_once(workload, seed, spec["run_seconds"], trace) for seed in seeds]
            errors = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            correct = all(r["correct"] for r in results)
            all_correct = all_correct and correct
            print(f"{workload} ({'traced' if trace else 'untraced'}, seeds {args.seeds}): "
                  f"correct={correct} error_rate {errors / attempted:g} "
                  f"({errors}/{attempted} jobs)")
            for name, first in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                line = f"  {name:<34} {statistics.median(values):>12.6g} {first['unit']}"
                if len(values) >= 2:
                    line += f"   spread {spread(values):.4f}"
                    if name in bounds:
                        line += f" (bound {bounds[name]})"
                print(line)
            wall = "cli.wall_s" if trace else "wall_s"
            walls[trace] = statistics.median(r["metrics"][wall]["value"] for r in results)
        if len(walls) == 2:
            print(f"  {'tracing overhead (wall_s)':<34} {walls[1] - walls[0]:>12.6g} s")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
