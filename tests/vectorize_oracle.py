"""Reference vectorization by a site-by-site contraction, and test bases.

``vectorize_by_sites`` is the contraction the package used before the
per-basis gather-and-transform plan in ``superschur.liouville``: the
operator's axes are interleaved so that site k's index is ``i_k j_k``, and
each site in turn is contracted with the dual letter matrix
``M[a, s] = conj(letter_a[s]) / d``.  It reads only the letters, so it
needs no monomial structure, and is kept as a test oracle for
``vectorize``.
"""

from __future__ import annotations

import itertools

import numpy as np

from superschur.liouville import OperatorBasis, QuditOperator, pauli_letters


def vectorize_by_sites(op: QuditOperator, basis: OperatorBasis) -> np.ndarray:
    """Coefficient vector of ``op`` in the letter basis, site by site."""
    d, n = basis.d, basis.n
    q = d * d
    M = np.stack([np.conj(letter.reshape(-1)) / d for letter in basis.letters])
    t = op.matrix.reshape((d,) * (2 * n))
    # (i_1..i_n, j_1..j_n) -> (i_1, j_1, ..., i_n, j_n): site k's index is i_k j_k
    t = np.transpose(t, axes=[ax for k in range(n) for ax in (k, n + k)])
    for _ in range(n):
        # contract the leading site; its letter index moves to the back
        t = (M @ t.reshape(q, -1)).T
    return t.reshape(-1)


def rotated_pauli_basis(V: np.ndarray, n: int) -> OperatorBasis:
    """The Pauli strings with every letter conjugated by the unitary V."""
    letters = [V.conj().T @ P @ V for P in pauli_letters()]
    labels = list(itertools.product(range(4), repeat=n))
    return OperatorBasis(d=2, n=n, letters=letters, labels=labels)


def hadamard_pauli_basis(n: int) -> OperatorBasis:
    """Paulis conjugated by the Hadamard: I, Z, -Y, X, a monomial letter set
    in another order and with other phases, roundoff zeroed."""
    Had = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    basis = rotated_pauli_basis(Had, n)
    for letter in basis.letters:
        letter[np.abs(letter) < 1e-15] = 0.0
    return basis
