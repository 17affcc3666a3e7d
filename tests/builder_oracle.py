"""Reference operators of the built-in example families, by site patterns.

Each family is written as the README defines it: sums and lists over the
distinct orderings of a site pattern, found here by the rule the package
used before its orbit helper, ``sorted(set(itertools.permutations(...)))``
over all n! orderings.  Damping orbits come in that lexicographic pattern
order; the jump operators of ``single_jump`` and ``double_jump`` and the
terms of the Ising Hamiltonian in ``itertools.combinations`` order, the
reverse.  Completion, scaling and orthogonalization repeat the builders'
arithmetic step for step, so the reference is equal to the builders'
output byte for byte.  It is kept only as a test oracle for
``superschur.channels``.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from superschur.channels import _psd_sqrt, orthogonalize_kraus

I2 = np.eye(2, dtype=np.complex128)
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def site_patterns(n: int, k: int) -> list[tuple[int, ...]]:
    """The distinct orderings of the pattern 1^k 0^(n-k), lexicographic."""
    return sorted(set(itertools.permutations([1] * k + [0] * (n - k))))


def orbit(n: int, k: int, one, rest=I2) -> list[np.ndarray]:
    """``one`` on the sites of each pattern's ones, ``rest`` elsewhere."""
    return [reduce(np.kron, [one if bit else rest for bit in p]) for p in site_patterns(n, k)]


def in_combinations_order(n: int, k: int, one) -> list[np.ndarray]:
    """The orbit in ``itertools.combinations`` order of the sites of ``one``."""
    return orbit(n, k, one)[::-1]


def damping_pair(p: float) -> tuple[np.ndarray, np.ndarray]:
    f0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=np.complex128)
    f1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=np.complex128)
    return f0, f1


def completed(n: int, ops: list[np.ndarray]) -> list[np.ndarray]:
    R = np.eye(2**n, dtype=np.complex128) - sum(F.conj().T @ F for F in ops)
    if not np.max(np.abs(R)) < 1e-14:
        ops = ops + [_psd_sqrt(R)]
    return orthogonalize_kraus(2, n, ops)


def ising(n: int, h_x: float, J: float) -> np.ndarray:
    H = np.zeros((2**n, 2**n), dtype=np.complex128)
    for T in in_combinations_order(n, 1, X):
        H += h_x * T
    for T in in_combinations_order(n, 2, Z):
        H += J * T
    return H


def collective_damping(n, p=0.5):
    f0, f1 = damping_pair(p)
    return completed(n, orbit(n, 0, f1, f0) + orbit(n, n, f1, f0))


def correlated_damping(n, p=0.5):
    f0, f1 = damping_pair(p)
    sums = []
    for k in (1, 2):
        terms = orbit(n, k, f1, f0)
        sums.append(sum(terms) / math.sqrt(len(terms)))
    return completed(n, sums)


def single_site_damping(n, p=0.5):
    ops = [F / math.sqrt(n) for f in damping_pair(p) for F in orbit(n, 1, f)]
    return orthogonalize_kraus(2, n, ops)


def independent_damping(n, p=0.5):
    f0, f1 = damping_pair(p)
    return orthogonalize_kraus(2, n, [F for k in range(n + 1) for F in orbit(n, k, f1, f0)])


def single_jump(n, gamma1=1.0, h_x=1.0, J=1.0):
    return [ising(n, h_x, J)] + [math.sqrt(gamma1) * L for L in in_combinations_order(n, 1, LOWER)]


def double_jump(n, gamma2=1.0, h_x=1.0, J=1.0):
    return [ising(n, h_x, J)] + [math.sqrt(gamma2) * L for L in in_combinations_order(n, 2, LOWER)]


def collective_jump(n, gamma3=1.0, gamma4=1.0, gamma5=1.0, h_x=1.0, J=1.0):
    jumps = [
        math.sqrt(rate) * sum(orbit(n, k, LOWER))
        for k, rate in ((1, gamma3), (2, gamma4), (n, gamma5))
        if rate > 0.0
    ]
    return [ising(n, h_x, J)] + orthogonalize_kraus(2, n, jumps)


def transverse_ising(n, h_x=1.0, J=1.0):
    return [ising(n, h_x, J)]


# the operator arrays of each family: Kraus operators, or the Hamiltonian
# followed by the jump operators
REFERENCE = {
    "collective_damping": collective_damping,
    "correlated_damping": correlated_damping,
    "single_site_damping": single_site_damping,
    "independent_damping": independent_damping,
    "single_jump": single_jump,
    "double_jump": double_jump,
    "collective_jump": collective_jump,
    "transverse_ising": transverse_ising,
}
