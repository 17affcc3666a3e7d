"""Checks of one job's exit code and ``--out`` report against known truth.

Truth comes from the job itself (expected exit code and the README
classification of its input) and from the sector dimension formulas
``syt_dimension`` and ``weyl_dimension``.  Every function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

from superschur.combinatorics import partitions, syt_dimension, weyl_dimension

SYMMETRIC = ("strong", "weak")


def expected_sectors(d: int, n: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """Partition -> (protected dim, noisy dim) for n qudits of dimension d."""
    q = d * d
    return {
        shape.parts: (syt_dimension(shape), weyl_dimension(shape, q))
        for shape in partitions(n, min(n, q))
    }


def measured_pairs(node, path: str = ""):
    """Yield (path, value, tol) for every {value, tol} entry of a report."""
    if isinstance(node, dict):
        if "value" in node and "tol" in node:
            yield path, node["value"], node["tol"]
        for key, child in node.items():
            yield from measured_pairs(child, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from measured_pairs(child, f"{path}[{k}]")


def _check_measurements(report: dict, classification: str) -> list[str]:
    problems = []
    for path, value, tol in measured_pairs(report):
        if not math.isfinite(value):
            problems.append(f"{path}: value {value} is not finite")
        elif classification == "weak" and path == "certificate.residuals.strong_commutator":
            # the evidence that a weak map is not strong
            if value <= tol:
                problems.append(f"{path}: {value:.3e} <= tol {tol:.1e} on a weak map")
        elif classification in SYMMETRIC and value > tol:
            problems.append(f"{path}: {value:.3e} > tol {tol:.1e}")
    if classification not in SYMMETRIC:
        leak = report["leakage"]
        if leak["value"] <= leak["tol"]:
            problems.append(f"leakage {leak['value']:.3e} <= tol on a map without symmetry")
    return problems


def _check_analyze(report: dict, d: int, n: int, classification: str) -> list[str]:
    problems = []
    truth = expected_sectors(d, n)
    if report.get("liouville_dim") != (d * d) ** n:
        problems.append(f"liouville_dim {report.get('liouville_dim')} != {(d * d) ** n}")
    seen = [tuple(s["partition"]) for s in report["sectors"]]
    if sorted(seen) != sorted(truth):
        problems.append(f"sector shapes {seen} != {sorted(truth)}")
    for sector in report["sectors"]:
        shape = tuple(sector["partition"])
        if shape not in truth:
            continue
        protected, noisy = truth[shape]
        if (sector["protected_dim"], sector["noisy_dim"]) != (protected, noisy):
            problems.append(
                f"sector {shape}: dims ({sector['protected_dim']}, {sector['noisy_dim']}) "
                f"!= ({protected}, {noisy})"
            )
        want_flag = classification in SYMMETRIC and protected >= 2
        if sector["flagged"] != want_flag:
            problems.append(f"sector {shape}: DFS flag {sector['flagged']} != {want_flag}")
    needs_probe = any(p >= 2 for p, _ in truth.values())
    if needs_probe != ("protection" in report):
        problems.append(f"protection probe present={'protection' in report}, "
                        f"expected {needs_probe}")
    return problems


def _check_evolve(report: dict, d: int, n: int, times: list[float]) -> list[str]:
    problems = []
    if report.get("times") != times:
        problems.append(f"times {report.get('times')} != {times}")
    want = sorted(
        (shape, y) for shape, (protected, _) in expected_sectors(d, n).items()
        for y in range(protected)
    )
    for entry in report.get("results", []):
        got = sorted((tuple(b["partition"]), b["tableau_index"]) for b in entry["blocks"])
        if got != want:
            problems.append(f"t={entry['t']}: {len(got)} blocks, expected {len(want)}")
        if not all(math.isfinite(b["max_abs"]) and b["max_abs"] > 0 for b in entry["blocks"]):
            problems.append(f"t={entry['t']}: block with a zero or non-finite entry bound")
    if len(report.get("results", [])) != len(times):
        problems.append(f"{len(report.get('results', []))} results for {len(times)} times")
    return problems


def check_job(job, exit_code: int, report: dict | None) -> list[str]:
    """Problems with one job's outcome; ``report`` is its parsed ``--out``."""
    if exit_code != job.expected_exit:
        return [f"exit code {exit_code} != expected {job.expected_exit}"]
    if job.expected_exit != 0:
        return [] if report is None else ["refused job still wrote a report"]
    if report is None:
        return ["no report written"]
    problems = []
    echo = report.get("input", {})
    if (echo.get("d"), echo.get("n"), echo.get("kind")) != (job.d, job.n, job.kind):
        problems.append(f"input echo {echo.get('d')}, {echo.get('n')}, {echo.get('kind')} "
                        f"!= {job.d}, {job.n}, {job.kind}")
    if report.get("command") != job.command:
        problems.append(f"command {report.get('command')} != {job.command}")
    if report.get("classification") != job.classification:
        problems.append(f"classification {report.get('classification')} "
                        f"!= {job.classification}")
    problems += _check_measurements(report, job.classification)
    if job.command == "analyze":
        problems += _check_analyze(report, job.d, job.n, job.classification)
    else:
        times = [float(t) for t in job.extra_args[job.extra_args.index("--times") + 1]
                 .split(",")]
        problems += _check_evolve(report, job.d, job.n, times)
    return problems


def check_dense(report: dict) -> list[str]:
    """An ``evolve --verify-dense`` report: every time carries a dense
    cross-check within its tolerance."""
    problems = []
    for entry in report.get("results", []):
        dense = entry.get("dense_deviation")
        if dense is None:
            problems.append(f"t={entry['t']}: no dense_deviation")
        elif not dense["value"] <= dense["tol"]:
            problems.append(f"t={entry['t']}: dense_deviation {dense['value']:.3e} "
                            f"> tol {dense['tol']:.1e}")
    if not report.get("results"):
        problems.append("no results")
    return problems
