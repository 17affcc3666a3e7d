"""Self-check suites for the `verify` CLI command.

Each suite measures one deviation and compares it to a fixed tolerance;
exact integer checks use tolerance zero.  The fast level stays at n <= 3;
full adds the four-site and qutrit cases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .blockdiag import blockwise_exp, decompose, protection_check
from .channels import (
    KrausChannel,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
    example_channel,
    kraus_superop,
    lindblad_superop,
)
from .combinatorics import Partition, partitions, syt_dimension, weyl_dimension
from .liouville import (
    QuditOperator,
    devectorize,
    hs_inner,
    operator_basis,
    perm_rep,
    vectorize,
)
from .permutations import adjacent_transpositions
from .schur import matrix_unit, permutation_in_schur, super_schur_basis


@dataclass(frozen=True)
class SuiteResult:
    name: str
    measured: float
    tol: float
    passed: bool
    seconds: float


def _dimension_sum(cases) -> float:
    worst = 0
    for d, n_max in cases:
        for n in range(1, n_max + 1):
            total = sum(
                syt_dimension(s) * weyl_dimension(s, d * d)
                for s in partitions(n, min(n, d * d))
            )
            worst = max(worst, abs(total - (d * d) ** n))
    return float(worst)


def _suite_dimension_sum_fast() -> float:
    return _dimension_sum([(2, 4), (3, 2)])


def _suite_dimension_sum_full() -> float:
    return _dimension_sum([(2, 6), (3, 3)])


def _suite_letter_basis_orthonormal() -> float:
    worst = 0.0
    for d, n in [(2, 1), (2, 2), (2, 3), (3, 1)]:
        basis = operator_basis(d, n)
        G = np.array(
            [[hs_inner(a, b) for b in basis.elements] for a in basis.elements]
        )
        worst = max(worst, float(np.max(np.abs(G - np.eye(basis.dim)))))
    return worst


def _suite_vectorize_round_trip() -> float:
    rng = np.random.default_rng(0)
    worst = 0.0
    for d, n in [(2, 2), (2, 3), (3, 1)]:
        basis = operator_basis(d, n)
        dim = d**n
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        op = QuditOperator(d, n, m)
        back = devectorize(vectorize(op, basis), basis)
        worst = max(worst, float(np.max(np.abs(back.matrix - m))))
    return worst


def _basis_unitarity(cases) -> float:
    return max(super_schur_basis(d, n).unitarity_deviation() for d, n in cases)


def _suite_basis_unitary_small() -> float:
    return _basis_unitarity([(2, 1), (2, 2), (2, 3)])


def _suite_basis_unitary_n4() -> float:
    return _basis_unitarity([(2, 4)])


def _suite_basis_unitary_qutrit() -> float:
    return _basis_unitarity([(3, 2)])


def _equivariance(d: int, n: int) -> float:
    basis = super_schur_basis(d, n)
    return max(
        permutation_in_schur(g, basis).leakage for g in adjacent_transpositions(n)
    )


def _suite_equivariance_n3() -> float:
    return max(_equivariance(2, 2), _equivariance(2, 3))


def _suite_equivariance_n4() -> float:
    return _equivariance(2, 4)


def _suite_reference_column_n3() -> float:
    """The known mixed-symmetry column at n=3: letters X,X,Y in content
    (0,2,1,0) with amplitudes sqrt(2/3), -sqrt(1/6), -sqrt(1/6)."""
    basis = super_schur_basis(2, 3)
    target = np.zeros(64, dtype=np.complex128)
    target[int("112", 4)] = np.sqrt(2.0 / 3.0)
    target[int("121", 4)] = -np.sqrt(1.0 / 6.0)
    target[int("211", 4)] = -np.sqrt(1.0 / 6.0)
    shape = Partition((2, 1))
    U = basis.unitary
    best = np.inf
    for j, lab in enumerate(basis.labels):
        if lab.shape == shape and lab.weight == (0, 2, 1, 0):
            col = U[:, j]
            best = min(
                best,
                float(np.max(np.abs(col - target))),
                float(np.max(np.abs(col + target))),
            )
    return best


def _suite_matrix_unit_algebra_n3() -> float:
    shape = Partition((2, 1))
    units = {
        (i, j): matrix_unit(shape, i, j, 2, 3) for i in range(2) for j in range(2)
    }
    worst = 0.0
    for (i, j), E in units.items():
        for (k, l), F in units.items():
            product = E @ F
            expected = units[(i, l)] if j == k else np.zeros_like(product)
            worst = max(worst, float(np.max(np.abs(product - expected))))
    # diagonal units across all shapes resolve the identity
    total = sum(
        matrix_unit(s, y, y, 2, 3)
        for s in partitions(3, 3)
        for y in range(syt_dimension(s))
    )
    worst = max(worst, float(np.max(np.abs(total - np.eye(64)))))
    return worst


def _example_set_n3():
    yield example_channel("collective_damping", n=3, p=0.3)
    yield example_channel("correlated_damping", n=3, p=0.3)
    yield example_channel("single_site_damping", n=3, p=0.3)
    yield example_channel("independent_damping", n=3, p=0.3)
    yield example_channel("single_jump", n=3, gamma1=1.0)
    yield example_channel("double_jump", n=3, gamma2=1.0)
    yield example_channel("collective_jump", n=3)
    yield example_channel("transverse_ising", n=3)


def _suite_example_block_structure_n3() -> float:
    ob = operator_basis(2, 3)
    basis = super_schur_basis(2, 3)
    worst = 0.0
    for channel in _example_set_n3():
        if isinstance(channel, KrausChannel):
            superop = kraus_superop(channel, ob)
        else:
            superop = lindblad_superop(channel, ob)
        decomp = decompose(superop, basis)
        worst = max(worst, decomp.leakage, max(decomp.twin_deviation.values()))
    return worst


def _suite_classification_table_n3() -> float:
    expected = {
        "collective_damping": "strong",
        "correlated_damping": "strong",
        "single_site_damping": "weak",
        "independent_damping": "weak",
        "single_jump": "weak",
        "double_jump": "weak",
        "collective_jump": "strong",
        "transverse_ising": "strong",
    }
    mistakes = 0
    for name, want in expected.items():
        channel = example_channel(name, n=3)
        if isinstance(channel, KrausChannel):
            got = classify_kraus_symmetry(channel).classification
        else:
            got = classify_lindblad_symmetry(channel).classification
        mistakes += got != want
    return float(mistakes)


def _suite_protection_probe_n3() -> float:
    ob = operator_basis(2, 3)
    basis = super_schur_basis(2, 3)
    channel = example_channel("collective_damping", n=3, p=0.3)
    decomp = decompose(kraus_superop(channel, ob), basis)
    return protection_check(decomp, trials=5, seed=0)


def _suite_sector_sizes_brute_n2() -> float:
    """Two-site sector sizes against the plain (anti)symmetrizer ranks."""
    ob = operator_basis(2, 2)
    swap = perm_rep((1, 0), 2, 2, ob).liouville_matrix
    sym_rank = int(np.linalg.matrix_rank((np.eye(16) + swap) / 2))
    anti_rank = int(np.linalg.matrix_rank((np.eye(16) - swap) / 2))
    off = abs(sym_rank - weyl_dimension(Partition((2,)), 4))
    off += abs(anti_rank - weyl_dimension(Partition((1, 1)), 4))
    return float(off)


def _suite_blockwise_exp_dense_n3() -> float:
    ob = operator_basis(2, 3)
    basis = super_schur_basis(2, 3)
    lind = example_channel("single_jump", n=3, gamma1=1.0, h_x=1.0, J=1.0)
    decomp = decompose(lindblad_superop(lind, ob), basis)
    worst = 0.0
    for t in (0.1, 1.0):
        evolved = blockwise_exp(decomp, t)
        dense = expm(t * decomp.schur_matrix)
        worst = max(worst, float(np.max(np.abs(evolved.schur_matrix - dense))))
    return worst


_FAST_SUITES = [
    ("dimension_sum", 0.0, _suite_dimension_sum_fast),
    ("letter_basis_orthonormal", 1e-12, _suite_letter_basis_orthonormal),
    ("vectorize_round_trip", 1e-12, _suite_vectorize_round_trip),
    ("basis_unitary", 1e-10, _suite_basis_unitary_small),
    ("permutation_equivariance", 1e-10, _suite_equivariance_n3),
    ("reference_column_n3", 1e-10, _suite_reference_column_n3),
    ("matrix_unit_algebra_n3", 1e-10, _suite_matrix_unit_algebra_n3),
    ("example_block_structure_n3", 1e-10, _suite_example_block_structure_n3),
    ("classification_table_n3", 0.0, _suite_classification_table_n3),
    ("protection_probe_n3", 1e-10, _suite_protection_probe_n3),
]

_FULL_SUITES = _FAST_SUITES + [
    ("dimension_sum_extended", 0.0, _suite_dimension_sum_full),
    ("basis_unitary_n4", 1e-10, _suite_basis_unitary_n4),
    ("permutation_equivariance_n4", 1e-10, _suite_equivariance_n4),
    ("basis_unitary_qutrit_n2", 1e-10, _suite_basis_unitary_qutrit),
    ("sector_sizes_brute_force_n2", 0.0, _suite_sector_sizes_brute_n2),
    ("blockwise_exp_dense_n3", 1e-8, _suite_blockwise_exp_dense_n3),
]


def run_suites(level: str) -> list[SuiteResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    suites = _FAST_SUITES if level == "fast" else _FULL_SUITES
    results = []
    for name, tol, fn in suites:
        t0 = time.perf_counter()
        measured = float(fn())
        seconds = time.perf_counter() - t0
        results.append(SuiteResult(name, measured, tol, measured <= tol, seconds))
    return results
