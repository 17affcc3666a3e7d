"""Seeded inputs and job lists for the benchmark workloads.

Every workload turns a seed into channel description files (builder stanzas
or explicit ``[re, im]`` operator matrices) plus the list of CLI jobs to run
on them.  Each job carries the truth its output is checked against: the
expected exit code and the expected symmetry classification.  The same seed
always writes the same bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from functools import reduce

import numpy as np

TIMES = "0.1,1.0"

# Builder families: kind, README classification at n >= 3, parameters.
FAMILIES = {
    "collective_damping": ("kraus", "strong", ("p",)),
    "correlated_damping": ("kraus", "strong", ("p",)),
    "single_site_damping": ("kraus", "weak", ("p",)),
    "independent_damping": ("kraus", "weak", ("p",)),
    "single_jump": ("lindblad", "weak", ("gamma1", "h_x", "J")),
    "double_jump": ("lindblad", "weak", ("gamma2", "h_x", "J")),
    "collective_jump": ("lindblad", "strong", ("gamma3", "gamma4", "gamma5", "h_x", "J")),
    "transverse_ising": ("lindblad", "strong", ("h_x", "J")),
}

# Exit codes documented in the README.
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the truth its result is checked against."""

    name: str
    command: str  # "analyze" or "evolve"
    input_path: str
    input_sha256: str
    d: int
    n: int
    kind: str
    classification: str
    expected_exit: int
    extra_args: tuple[str, ...] = ()

    def argv(self, out_path: str) -> list[str]:
        return [self.command, self.input_path, *self.extra_args, "--out", out_path]


def _write_input(directory: str, name: str, doc: dict) -> tuple[str, str]:
    text = json.dumps(doc, sort_keys=True) + "\n"
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path, hashlib.sha256(text.encode()).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _param(rng: random.Random, name: str) -> float:
    # p stays inside (0, 1) and rates stay positive, so every family keeps
    # its README classification and no operator vanishes.
    if name == "p":
        return round(rng.uniform(0.1, 0.9), 6)
    return round(rng.uniform(0.2, 1.5), 6)


def builder_jobs(directory: str, family: str, n: int, rng, seed: int, commands) -> list[Job]:
    """Jobs running ``commands`` on a seeded builder stanza for ``family``."""
    kind, classification, names = FAMILIES[family]
    params = {name: _param(rng, name) for name in names}
    doc = {"d": 2, "n": n, "kind": kind, "builder": {"name": family, "params": params}}
    path, digest = _write_input(directory, f"{family}_n{n}", doc)
    jobs = []
    for command in commands:
        extra = ("--seed", str(seed)) if command == "analyze" else ("--times", TIMES)
        jobs.append(Job(f"{command}:{family}", command, path, digest, 2, n, kind,
                        classification, EXIT_OK, extra))
    return jobs


def sweep_q5(directory: str, seed: int) -> list[Job]:
    rng = _rng("sweep-q5", seed)
    jobs = []
    for family, (kind, _, _) in FAMILIES.items():
        commands = ("analyze", "evolve") if kind == "lindblad" else ("analyze",)
        jobs += builder_jobs(directory, family, 5, rng, seed, commands)
    return jobs


def ceiling_q6(directory: str, seed: int) -> list[Job]:
    rng = _rng("ceiling-q6", seed)
    return builder_jobs(directory, "collective_jump", 6, rng, seed, ("evolve",))


# --------------------------------------------------------------------------
# explicit operators with site-dependent rates (certificate "none")


def _letters(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift X and clock Z for one qudit."""
    shift = np.roll(np.eye(d), 1, axis=0).astype(np.complex128)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return shift, clock


def _embed(ops_by_site: dict, d: int, n: int) -> np.ndarray:
    eye = np.eye(d, dtype=np.complex128)
    return reduce(np.kron, (ops_by_site.get(k, eye) for k in range(n)))


def _spread_rates(rng: random.Random, count: int, low: float, step: float) -> list[float]:
    # Distinct by at least ``step``, so no seed lands on a symmetric map.
    rates = [round(low + step * k + rng.uniform(0.0, step / 2), 6) for k in range(count)]
    rng.shuffle(rates)
    return rates


def _as_pairs(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _explicit_lindblad(d: int, n: int, rng: random.Random) -> dict:
    shift, clock = _letters(d)
    lower = np.triu(shift) if d == 2 else shift  # sigma^- for qubits
    gammas = _spread_rates(rng, n, 0.2, 0.15)
    fields = _spread_rates(rng, n, 0.3, 0.1)
    jumps = [math.sqrt(g) * _embed({k: lower}, d, n) for k, g in enumerate(gammas)]
    H = sum(h * _embed({k: clock + clock.conj().T}, d, n) for k, h in enumerate(fields))
    for i, j in itertools.combinations(range(n), 2):
        coupling = round(rng.uniform(0.2, 1.2), 6)
        hop = _embed({i: shift, j: shift.conj().T}, d, n)
        H = H + coupling * (hop + hop.conj().T)
    return {"d": d, "n": n, "kind": "lindblad",
            "operators": [_as_pairs(L) for L in jumps], "hamiltonian": _as_pairs(H)}


def _local_kraus(d: int, p: float) -> list[np.ndarray]:
    """Amplitude damping for qubits, {sqrt(1-p) I, sqrt(p/2) X, sqrt(p/2) Z}
    above; either set is orthogonal and closes to the identity."""
    shift, clock = _letters(d)
    if d == 2:
        return [np.diag([1.0, math.sqrt(1 - p)]).astype(np.complex128),
                math.sqrt(p) * np.triu(shift)]
    return [math.sqrt(1 - p) * np.eye(d, dtype=np.complex128),
            math.sqrt(p / 2) * shift, math.sqrt(p / 2) * clock]


def _explicit_kraus(d: int, n: int, rng: random.Random) -> dict:
    # Independent per-site maps with a different p on every site; the
    # products of orthogonal closing sets are orthogonal and close.
    probs = _spread_rates(rng, n, 0.1, 0.12)
    local = [_local_kraus(d, p) for p in probs]
    ops = [reduce(np.kron, choice) for choice in itertools.product(*local)]
    return {"d": d, "n": n, "kind": "kraus", "operators": [_as_pairs(F) for F in ops]}


def explicit_jobs(directory: str, d: int, n: int, rng, seed: int) -> list[Job]:
    """analyze and evolve on a site-dependent Lindbladian and Kraus map."""
    jobs = []
    for kind, build in (("lindblad", _explicit_lindblad), ("kraus", _explicit_kraus)):
        name = f"{kind}_d{d}n{n}"
        path, digest = _write_input(directory, name, build(d, n, rng))
        # evolve refuses: exit 3 for a leaky generator, exit 2 for a Kraus
        # file, which is not a generator at all
        refusal = EXIT_INVARIANT if kind == "lindblad" else EXIT_INPUT
        jobs.append(Job(f"analyze:{name}", "analyze", path, digest, d, n, kind,
                        "none", EXIT_OK, ("--seed", str(seed))))
        jobs.append(Job(f"evolve:{name}", "evolve", path, digest, d, n, kind,
                        "none", refusal, ("--times", TIMES)))
    return jobs


def asym_explicit(directory: str, seed: int) -> list[Job]:
    rng = _rng("asym-explicit", seed)
    return explicit_jobs(directory, 2, 5, rng, seed) + explicit_jobs(directory, 3, 3, rng, seed)


BUILDERS = {"sweep-q5": sweep_q5, "ceiling-q6": ceiling_q6, "asym-explicit": asym_explicit}


def make_jobs(workload: str, seed: int, directory: str) -> list[Job]:
    """Write the workload's inputs for ``seed`` into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    return BUILDERS[workload](directory, seed)
