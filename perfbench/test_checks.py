"""The benchmark's own tests: genuine CLI reports pass the output checks,
corrupted ones fail, inputs follow the seed, and tracing leaves no trace.

Run with ``PYTHONPATH=src python -m pytest perfbench`` from the checkout root.
"""

from __future__ import annotations

import copy
import json
import os
import random

import pytest

import checks
import jobs
from spans import Tracer
from superschur import cli


def _run(job, directory, extra=()):
    out = directory / (job.name.replace(":", "_") + "".join(extra) + ".json")
    argv = job.argv(str(out))
    argv[2:2] = extra
    code = cli.main(argv)
    return code, json.loads(out.read_text()) if out.exists() else None


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """(job, exit code, report) for small symmetric and asymmetric inputs."""
    directory = tmp_path_factory.mktemp("perfbench")
    rng = random.Random(0)
    job_list = (
        jobs.builder_jobs(str(directory), "single_jump", 3, rng, 0, ("analyze", "evolve"))
        + jobs.builder_jobs(str(directory), "collective_damping", 3, rng, 0, ("analyze",))
        + jobs.explicit_jobs(str(directory), 2, 3, rng, 0)
    )
    return {job.name: (job, *_run(job, directory)) for job in job_list}


def _problems(outcomes, name, mutate=None, code=None):
    job, exit_code, report = outcomes[name]
    report = copy.deepcopy(report)
    if mutate is not None:
        mutate(report)
    return checks.check_job(job, exit_code if code is None else code, report)


def test_genuine_reports_pass(outcomes):
    assert {name: _problems(outcomes, name) for name in outcomes} == {
        name: [] for name in outcomes
    }


@pytest.mark.parametrize("name", ["analyze:single_jump", "analyze:lindblad_d2n3"])
def test_wrong_classification_fails(outcomes, name):
    assert _problems(outcomes, name, lambda r: r.update(classification="strong"))


def test_dropped_flag_fails(outcomes):
    def drop(report):
        next(s for s in report["sectors"] if s["flagged"])["flagged"] = False

    assert _problems(outcomes, "analyze:collective_damping", drop)


def test_flag_on_asymmetric_map_fails(outcomes):
    def flag(report):
        next(s for s in report["sectors"] if s["protected_dim"] >= 2)["flagged"] = True

    assert _problems(outcomes, "analyze:kraus_d2n3", flag)


@pytest.mark.parametrize("name", ["analyze:single_jump", "evolve:single_jump"])
def test_leakage_above_tol_fails(outcomes, name):
    def leak(report):
        report["leakage"]["value"] = 10 * report["leakage"]["tol"]

    assert _problems(outcomes, name, leak)


def test_asymmetric_leakage_below_tol_fails(outcomes):
    def seal(report):
        report["leakage"]["value"] = 0.0

    assert _problems(outcomes, "analyze:lindblad_d2n3", seal)


def test_wrong_sector_dimension_fails(outcomes):
    def grow(report):
        report["sectors"][0]["noisy_dim"] += 1

    assert _problems(outcomes, "analyze:single_jump", grow)


def test_missing_evolve_block_fails(outcomes):
    def drop(report):
        report["results"][0]["blocks"].pop()

    assert _problems(outcomes, "evolve:single_jump", drop)


@pytest.mark.parametrize(
    "name, code",
    [("evolve:lindblad_d2n3", 0), ("evolve:lindblad_d2n3", 2), ("evolve:kraus_d2n3", 3),
     ("analyze:single_jump", 3), ("evolve:single_jump", 4)],
)
def test_wrong_exit_code_fails(outcomes, name, code):
    assert outcomes[name][1] != code
    assert _problems(outcomes, name, code=code)


def test_refusals_have_documented_exit_codes(outcomes):
    assert outcomes["evolve:lindblad_d2n3"][1] == jobs.EXIT_INVARIANT
    assert outcomes["evolve:kraus_d2n3"][1] == jobs.EXIT_INPUT


def test_dense_check(outcomes, tmp_path):
    job = outcomes["evolve:single_jump"][0]
    code, report = _run(job, tmp_path, ("--verify-dense",))
    assert code == 0 and checks.check_dense(report) == []
    assert checks.check_dense(outcomes["evolve:single_jump"][2])  # no dense entries
    report["results"][1]["dense_deviation"]["value"] = 1.0
    assert checks.check_dense(report)


def test_inputs_follow_the_seed(tmp_path):
    def hashes(seed, sub):
        return [j.input_sha256 for j in jobs.make_jobs("sweep-q5", seed, str(tmp_path / sub))]

    assert hashes(3, "a") == hashes(3, "b")
    assert hashes(3, "a") != hashes(4, "c")


def test_tracer_spans_and_restore(outcomes, tmp_path):
    originals = (cli.super_schur_basis, cli.decompose, cli._load_channel)
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.job(cli.main, outcomes["analyze:single_jump"][0].argv(
            str(tmp_path / "out.json")))
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.super_schur_basis, cli.decompose, cli._load_channel) == originals
    assert not tracer.negative_self_times()
    names = {s.name for s in tracer.spans}
    assert {"cli.job", "channels.superop", "schur.basis", "blockdiag.decompose",
            "blockdiag.to_schur_frame", "liouville.vectorize"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["schur.basis_builds"][0] == 1
    assert metrics["liouville.vectorize_calls"][0] == 64
    spec = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(spec, encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared == set(metrics) | {"cli.wall_s"}
