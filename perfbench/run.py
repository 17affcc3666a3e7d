#!/usr/bin/env python3
"""Closed-loop benchmark of the superschur CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-q5 --seed 1 --seconds 10 --trace 0

One client runs one job at a time, each an ``analyze`` or ``evolve`` call
through ``superschur.cli.main(argv)`` on generated channel files, and
repeats the workload's job list (a pass) until ``--seconds`` have gone by;
at least one pass always runs.  Every job's exit code and ``--out`` report
are checked.  With ``--trace 1`` the public functions the CLI calls are
wrapped in spans (see spans.py) and per-layer metrics are printed instead
of end-to-end ones.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a record with the
environment, input hashes and every job goes to perfbench/work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

WORKLOADS = ("sweep-q5", "ceiling-q6", "asym-explicit")
# How many leading jobs of the list run once, untimed, before the loop: they
# warm the process, and their --out bytes are the reference the timed copies
# must match.  asym-explicit warms its whole pass (None) of 8 short jobs;
# sweep-q5 only its first job, as a pass takes ~20 s; ceiling-q6 none, as its
# single job takes ~50 s and a second run would double the run.
WARM_UP = {"sweep-q5": 1, "ceiling-q6": 0, "asym-explicit": None}
# BLAS threads per workload, capped at nproc.  On a shared host a second
# thread makes the small-matrix workloads ~25% faster but doubles how much
# their passes vary; ceiling-q6 is dense 4096x4096 work and needs both cores
# to keep its run near 50 s.
BLAS_THREADS = {"sweep-q5": 1, "ceiling-q6": 2, "asym-explicit": 1}
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment(workload: str) -> dict:
    """Fix BLAS threads and drop SCHUR_DFS_MAX_DIM (ceiling-q6 needs the 4096
    default); must run before numpy is imported."""
    threads = str(min(BLAS_THREADS[workload], nproc()))
    for var in THREAD_VARS:
        os.environ[var] = threads
    os.environ.pop("SCHUR_DFS_MAX_DIM", None)
    os.environ["PYTHONPATH"] = SRC
    return {var: threads for var in THREAD_VARS}


def environment_record(threads: dict) -> dict:
    import numpy as np
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": nproc(),
        "blas_threads": threads,
        "SCHUR_DFS_MAX_DIM": "unset",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(np),
        "scipy_openblas": blas_version(scipy),
        "machine": platform.machine(),
    }


def measure_setup() -> list[float]:
    """Interpreter start plus ``import superschur.cli``, in fresh processes;
    one untimed start first brings the files into the page cache."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import superschur.cli"], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs and checks jobs, remembering each job's first report bytes."""

    def __init__(self, cli, checks, out_dir: str, tracer=None) -> None:
        self.cli = cli
        self.checks = checks
        self.out_dir = out_dir
        self.tracer = tracer
        self.first_bytes: dict[str, bytes | None] = {}
        self.records: list[dict] = []

    def invoke(self, argv: list[str]) -> tuple[int | None, float, str]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                if self.tracer is not None:
                    code = self.tracer.job(self.cli.main, argv)
                else:
                    code = self.cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = None
            buf.write(traceback.format_exc())
        return code, time.perf_counter() - t0, buf.getvalue()

    def run(self, job, extra: tuple[str, ...] = (), tag: str = "") -> dict:
        out = os.path.join(self.out_dir, (job.name + tag).replace(":", "_") + ".json")
        if os.path.exists(out):
            os.remove(out)
        argv = job.argv(out)
        argv[2:2] = extra
        code, seconds, text = self.invoke(argv)
        data = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        problems = self.checks.check_job(job, code, json.loads(data) if data else None)
        key = job.name + tag
        identical = self.first_bytes.setdefault(key, data) == data
        if not identical:
            problems.append("--out bytes differ from the first run of this job")
        record = {"job": job.name, "argv": argv, "exit": code, "seconds": seconds,
                  "identical": identical, "problems": problems, "report": data}
        if problems:
            record["output"] = text[-2000:]
        self.records.append(record)
        return record


def timed_loop(runner: Runner, jobs, seconds: float) -> tuple[list[float], list[dict]]:
    """Closed loop: passes over the job list until ``seconds`` are used.
    Returns each pass's time (the sum of its job latencies) and every record."""
    start = time.perf_counter()
    passes, records = [], []
    while not passes or time.perf_counter() - start < seconds:
        done = [runner.run(job) for job in jobs]
        passes.append(sum(r["seconds"] for r in done))
        records += done
    return passes, records


def median_job(records: list[dict]) -> float:
    """The median job's latency: each job's median over the run, then the
    lower median over the job list.  It is always the latency of one job,
    never the mean of two unlike jobs on either side of a gap."""
    by_job: dict[str, list[float]] = {}
    for r in records:
        by_job.setdefault(r["job"], []).append(r["seconds"])
    return statistics.median_low(statistics.median(v) for v in by_job.values())


def tail(latencies: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it."""
    k = len(latencies)
    if k < 11:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[k - 11], "percentile": 100.0 * (k - 10) / k, "samples": k}


def dense_check(runner: Runner, jobs) -> list[str]:
    """Every evolve job again with --verify-dense, outside the timed loop."""
    problems = []
    for job in (j for j in jobs if j.command == "evolve"):
        record = runner.run(job, ("--verify-dense",), tag=":dense")
        problems += [f"{job.name}: {p}" for p in record["problems"]]
        if record["report"] is not None:
            dense = runner.checks.check_dense(json.loads(record["report"]))
            problems += [f"{job.name}: {p}" for p in dense]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "superschur", "cli.py")):
        print(f"error: no superschur sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    threads = pin_environment(args.workload)
    sys.path.insert(0, SRC)
    import superschur.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported superschur from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import jobs as jobs_module
    from spans import Tracer

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(out_dir)
    jobs = jobs_module.make_jobs(args.workload, args.seed, os.path.join(run_dir, "inputs"))

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment_record(threads),
              "inputs": sorted({(os.path.relpath(j.input_path, ROOT), j.input_sha256)
                                for j in jobs})}
    metrics: dict[str, dict] = {}
    checks_done: dict[str, list[str]] = {}
    tracer = Tracer() if args.trace else None
    runner = Runner(cli, checks, out_dir)
    if tracer is None:
        setup = measure_setup()
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["setup_samples_s"] = setup
    warm = [runner.run(job) for job in jobs[:WARM_UP[args.workload]]]
    if tracer is not None:
        runner.tracer = tracer  # the warm-up stays out of the spans
        tracer.install()
    try:
        passes, timed = timed_loop(runner, jobs, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [r["seconds"] for r in timed]
    failed = sum(1 for r in timed if r["problems"])

    if warm:
        warmed = {r["job"] for r in warm}
        checks_done["repeat_identical"] = [
            f"{r['job']}: {p}" for r in warm for p in r["problems"]
        ] + [
            f"{r['job']}: timed --out differs from the untimed run"
            for r in timed if r["job"] in warmed and not r["identical"]
        ]
    if tracer is None:
        if args.workload == "sweep-q5":
            checks_done["verify_dense"] = dense_check(runner, jobs)
        metrics["wall_s"] = {"value": statistics.median(passes), "unit": "s"}
        metrics["job_p50_s"] = {"value": median_job(timed), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    else:
        checks_done["self_time_not_negative"] = [
            f"span {s.ident} {s.name}: self time {s.self_s:.3e} s"
            for s in tracer.negative_self_times()
        ]
        metrics["cli.wall_s"] = {"value": statistics.median(passes), "unit": "s"}
        for name, (value, unit) in tracer.layer_metrics().items():
            metrics[name] = {"value": value, "unit": unit}
    correct = failed == 0 and not any(checks_done.values())

    result["passes_s"] = passes
    result["job_tail_s"] = tail(latencies)
    result["checks"] = checks_done
    result["error_rate"] = failed / len(timed)
    result["jobs"] = [{k: v for k, v in r.items() if k != "report"} for r in runner.records]
    result["metrics"] = metrics
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record_path = os.path.join(WORK, "results", os.path.basename(run_dir) + ".json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if tracer is not None:
        # the latest traced run's spans, one file per workload
        with open(os.path.join(WORK, "results", f"{args.workload}-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([[s.ident, s.parent, s.job, s.name, s.start, s.end, s.rss_rise_mb]
                       for s in tracer.spans], fh)
    shutil.rmtree(run_dir, ignore_errors=True)

    for r in runner.records:
        for problem in r["problems"]:
            print(f"FAIL {r['job']}: {problem}")
    for name, problems in checks_done.items():
        print(f"check {name}: {'FAIL' if problems else 'pass'}")
    print(f"{args.workload}: {len(passes)} passes, {len(timed)} jobs, {failed} failed, "
          f"error_rate {result['error_rate']:g}")
    if result["job_tail_s"]:
        t = result["job_tail_s"]
        print(f"job_tail_s {t['value']:.4f} s (p{t['percentile']:.1f} of {t['samples']} jobs)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(timed), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
