"""The package's self-checks, shared by ``superschur verify`` and pytest.

Every check is one :class:`Check` record in :data:`CHECKS`: a name, a
level, a tolerance and a function that returns the measured deviation.
Exact integer checks use tolerance zero; a check whose premise fails (a
reference column missing, a family put in the wrong class) measures
infinity.  The fast level stays at n <= 3; full adds the four-site and
qutrit cases, long dimension sums and the dense oracles of
:mod:`superschur.oracle`.  The n = 3 example maps are decomposed once per
process and shared by the three checks that read them.  Deviations fold
with ``np.max``/``np.min``, which, unlike the builtins, let a NaN through.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .blockdiag import blockwise_exp, decompose, dfs_report, protection_check
from .channels import (
    KrausChannel,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
    example_channel,
    kraus_superop,
    lindblad_superop,
)
from .combinatorics import Partition, partitions, syt_dimension, weyl_dimension
from .liouville import operator_basis, vectorize
from .oracle import devectorize, letter_string_matrix, matrix_unit, permutation_in_schur
from .oracle import permutation_matrix
from .permutations import adjacent_transpositions
from .schur import super_schur_basis

TWO_ONE = Partition((2, 1))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    measured: float
    tol: float
    passed: bool
    seconds: float

    def line(self) -> str:
        return (f"{'PASS' if self.passed else 'FAIL'} {self.name}: measured "
                f"{self.measured:.3e} (tol {self.tol:.1e}) [{self.seconds:.3f} s]")


@dataclass(frozen=True)
class Check:
    name: str
    level: str  # "fast" or "full"
    tol: float
    measure: Callable[[], float]

    def run(self) -> SuiteResult:
        t0 = time.perf_counter()
        measured = float(self.measure())
        seconds = time.perf_counter() - t0
        return SuiteResult(self.name, measured, self.tol, measured <= self.tol, seconds)


def _dimension_sum(*cases) -> float:
    """Largest |sum_lambda syt * weyl - (d*d)**n| over d and n <= n_max."""
    worst = 0
    for d, n_max in cases:
        for n in range(1, n_max + 1):
            total = sum(
                syt_dimension(s) * weyl_dimension(s, d * d)
                for s in partitions(n, min(n, d * d))
            )
            worst = max(worst, abs(total - (d * d) ** n))
    return float(worst)


def _letter_basis_orthonormal() -> float:
    deviations = []
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1)]:
        ob = operator_basis(d, n)
        E = np.stack([letter_string_matrix(ob, b).ravel() for b in range(ob.dim)])
        G = E.conj() @ E.T / d**n
        deviations.append(np.max(np.abs(G - np.eye(ob.dim))))
    return float(np.max(deviations))


def _letter_table() -> float:
    """Largest difference between each letter string's dense matrix and the
    monomial the basis's ``rows`` give it, zero elsewhere."""
    deviations = []
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)]:
        ob = operator_basis(d, n)
        cols, vals = ob.rows(slice(None))
        D = d**n
        planned = np.zeros((ob.dim, D, D), dtype=np.complex128)
        planned[np.arange(ob.dim)[:, None], np.arange(D), cols] = vals
        dense = np.stack([letter_string_matrix(ob, b) for b in range(ob.dim)])
        deviations.append(np.max(np.abs(dense - planned)))
    return float(np.max(deviations))


def _vectorize_round_trip() -> float:
    rng = np.random.default_rng(0)
    deviations = []
    for d, n in [(2, 2), (2, 3), (3, 1)]:
        basis = operator_basis(d, n)
        m = rng.standard_normal((d**n, d**n)) + 1j * rng.standard_normal((d**n, d**n))
        back = devectorize(vectorize(m, basis), basis)
        deviations.append(np.max(np.abs(back - m)))
    return float(np.max(deviations))


def _basis_unitarity(*cases) -> float:
    return float(np.max([super_schur_basis(d, n).unitarity_deviation() for d, n in cases]))


def _equivariance(*cases) -> float:
    """Largest leakage of an adjacent transposition outside its predicted
    D(pi) x I pattern, over the whole frame matrix."""
    return float(np.max([
        permutation_in_schur(g, super_schur_basis(d, n)).leakage
        for d, n in cases
        for g in adjacent_transpositions(n)
    ]))


def _reference_column_n3() -> float:
    """The known mixed-symmetry column at d=2, n=3: letters X,X,Y in content
    (0,2,1,0) with amplitudes sqrt(2/3), -sqrt(1/6), -sqrt(1/6), matched up
    to sign by one of exactly two {2,1} columns of that content."""
    basis = super_schur_basis(2, 3)
    target = np.zeros(64)
    target[[int("112", 4), int("121", 4), int("211", 4)]] = (
        math.sqrt(2 / 3), -math.sqrt(1 / 6), -math.sqrt(1 / 6)
    )
    U = basis.unitary
    cols = [
        U[:, j] for j, lab in enumerate(basis.labels)
        if lab.shape == TWO_ONE and lab.weight == (0, 2, 1, 0)
    ]
    if len(cols) != 2:
        return math.inf
    return float(np.min([[np.max(np.abs(v - target)), np.max(np.abs(v + target))] for v in cols]))


def _reference_projectors_n4() -> float:
    """Largest deviation, per shape at d=2, n=4, of the projector onto the
    reference-tableau columns (one block per content class) from the
    group-sum matrix unit E_00 = (dim / n!) sum_pi D(pi)[0, 0] S_pi; E_00
    preserves every class, so one dense comparison covers each class
    restriction and the zero blocks between classes."""
    basis = super_schur_basis(2, 4)
    U = basis.unitary
    deviations = []
    for shape in basis.shapes:
        V0 = U[:, basis.tableau_slice(shape, 0)]
        deviations.append(np.max(np.abs(V0 @ V0.T - matrix_unit(shape, 0, 0, 2, 4))))
    return float(np.max(deviations))


def _matrix_unit_algebra_n3() -> float:
    units = {(i, j): matrix_unit(TWO_ONE, i, j, 2, 3) for i in range(2) for j in range(2)}
    deviations = []
    for (i, j), E in units.items():
        for (k, l), F in units.items():
            product = E @ F
            expected = units[(i, l)] if j == k else np.zeros_like(product)
            deviations.append(np.max(np.abs(product - expected)))
    # diagonal units across all shapes resolve the identity
    total = sum(
        matrix_unit(s, y, y, 2, 3)
        for s in partitions(3, 3)
        for y in range(syt_dimension(s))
    )
    deviations.append(np.max(np.abs(total - np.eye(64))))
    return float(np.max(deviations))


_DAMPING_CLASSES = {"collective_damping": "strong", "correlated_damping": "strong",
                    "single_site_damping": "weak", "independent_damping": "weak"}
_JUMP_RATES = {"single_jump": ("weak", ("gamma1",)), "double_jump": ("weak", ("gamma2",)),
               "collective_jump": ("strong", ("gamma3", "gamma4", "gamma5"))}


def _examples():
    """(channel, expected class) at n = 3: every damping family at p in
    {0.1, 0.5, 0.9}, every jump family with its rates at 0.5 and at 1.0,
    and the transverse Ising generator."""
    for name, want in _DAMPING_CLASSES.items():
        for p in (0.1, 0.5, 0.9):
            yield example_channel(name, n=3, p=p), want
    for name, (want, rates) in _JUMP_RATES.items():
        for rate in (0.5, 1.0):
            yield example_channel(name, n=3, **dict.fromkeys(rates, rate)), want
    yield example_channel("transverse_ising", n=3), "strong"


def _classify(channel):
    if isinstance(channel, KrausChannel):
        return classify_kraus_symmetry(channel)
    return classify_lindblad_symmetry(channel)


@cache
def _decomposed_examples() -> tuple:
    """The decomposition of every example map, built once per process and
    shared by the checks that read them."""
    letters, basis = operator_basis(2, 3), super_schur_basis(2, 3)
    out = []
    for channel, _ in _examples():
        build = kraus_superop if isinstance(channel, KrausChannel) else lindblad_superop
        out.append(decompose(build(channel, letters), basis))
    return tuple(out)


def _example_block_structure_n3() -> float:
    return float(np.max([
        value
        for decomp in _decomposed_examples()
        for value in (decomp.leakage, *decomp.twin_deviation.values())
    ]))


def _classification_table_n3() -> float:
    """Largest residual behind each expected class (the Hamiltonian's, then
    the commutator for strong, the expansion and unitarity for weak)."""
    residuals = []
    for channel, want in _examples():
        cert = _classify(channel)
        if cert.classification != want:
            return math.inf
        r = cert.residuals
        keys = ["strong_commutator"] if want == "strong" else ["expansion_residual", "unitarity"]
        residuals += [r.get("hamiltonian_invariance", 0.0), *(r[k] for k in keys)]
    return float(np.max(residuals))


def _protection_probe_n3() -> float:
    return float(np.max([protection_check(decomp) for decomp in _decomposed_examples()]))


def _dfs_flags_n3() -> float:
    """Number of example maps whose {2,1} sector is not flagged as a
    decoherence-free subsystem of protected dimension 2."""
    misses = 0
    for decomp in _decomposed_examples():
        misses += not (dfs_report(decomp)[TWO_ONE] and decomp.basis.syt_count(TWO_ONE) == 2)
    return float(misses)


def _kraus_closure_n3() -> float:
    return float(np.max(
        [ch.closure_deviation for ch, _ in _examples() if isinstance(ch, KrausChannel)]
    ))


def _sector_sizes_brute_force_n2() -> float:
    """Ranks of the two-site (anti)symmetrizers against weyl_dimension, the
    built basis's multiplicities and the hand count (10, 6)."""
    swap = permutation_matrix((1, 0), 4, 2)
    ranks = [np.linalg.matrix_rank((np.eye(16) + sign * swap) / 2) for sign in (1, -1)]
    shapes = [Partition((2,)), Partition((1, 1))]
    basis = super_schur_basis(2, 2)
    wanted = [[weyl_dimension(s, 4) for s in shapes], [basis.multiplicity(s) for s in shapes], [10, 6]]
    return float(sum(abs(r - w) for want in wanted for r, w in zip(ranks, want)))


def _blockwise_exp_dense_n3() -> float:
    """U exp(t B) U^T, from the blocks of a weak generator, against the
    dense exponential of its letter-basis matrix at t = 0.1 and 1."""
    basis = super_schur_basis(2, 3)
    lind = example_channel("single_jump", n=3, gamma1=1.0, h_x=1.0, J=1.0)
    G = lindblad_superop(lind, operator_basis(2, 3))
    # decompose consumes G, so the dense exponentials come first
    dense = {t: expm(t * G.matrix) for t in (0.1, 1.0)}
    decomp = decompose(G, basis)
    U = basis.unitary
    return float(np.max([
        np.max(np.abs(U @ blockwise_exp(decomp, t).schur_matrix @ U.T - E))
        for t, E in dense.items()
    ]))


CHECKS = (
    Check("dimension_sum", "fast", 0.0, partial(_dimension_sum, (2, 4), (3, 2))),
    Check("letter_basis_orthonormal", "fast", 1e-12, _letter_basis_orthonormal),
    Check("letter_table", "fast", 1e-12, _letter_table),
    Check("vectorize_round_trip", "fast", 1e-12, _vectorize_round_trip),
    Check("basis_unitary", "fast", 1e-10, partial(_basis_unitarity, (2, 1), (2, 2), (2, 3))),
    Check("permutation_equivariance", "fast", 1e-10, partial(_equivariance, (2, 2), (2, 3))),
    Check("reference_column_n3", "fast", 1e-10, _reference_column_n3),
    Check("matrix_unit_algebra_n3", "fast", 1e-10, _matrix_unit_algebra_n3),
    Check("example_block_structure_n3", "fast", 1e-10, _example_block_structure_n3),
    Check("classification_table_n3", "fast", 1e-8, _classification_table_n3),
    Check("protection_probe_n3", "fast", 1e-10, _protection_probe_n3),
    Check("dfs_flags_n3", "fast", 0.0, _dfs_flags_n3),
    Check("kraus_closure_n3", "fast", 1e-12, _kraus_closure_n3),
    Check("dimension_sum_extended", "full", 0.0, partial(_dimension_sum, (2, 6), (3, 6))),
    Check("basis_unitary_n4", "full", 1e-10, partial(_basis_unitarity, (2, 4))),
    Check("permutation_equivariance_n4", "full", 1e-10, partial(_equivariance, (2, 4))),
    Check("reference_projectors_n4", "full", 1e-12, _reference_projectors_n4),
    Check("basis_unitary_qutrit_n2", "full", 1e-10, partial(_basis_unitarity, (3, 2))),
    Check("permutation_equivariance_qutrit_n2", "full", 1e-10, partial(_equivariance, (3, 2))),
    Check("sector_sizes_brute_force_n2", "full", 0.0, _sector_sizes_brute_force_n2),
    Check("blockwise_exp_dense_n3", "full", 1e-8, _blockwise_exp_dense_n3),
)


def checks(level: str) -> list[Check]:
    """The checks of ``level``, in registry order: full runs them all."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    return [c for c in CHECKS if level == "full" or c.level == "fast"]


def run_suites(level: str) -> list[SuiteResult]:
    return [c.run() for c in checks(level)]
