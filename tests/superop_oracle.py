"""Reference superoperator builders, one letter-basis column at a time.

These are the per-column loops the package used before the batched
monomial-letter kernel in ``superschur.channels``: every column forms the
dense basis element, applies the map with full matrix products and
vectorizes the image with one ``vectorize`` call.  They are kept only as a
test oracle for ``kraus_superop`` and ``lindblad_superop``.
"""

from __future__ import annotations

import numpy as np

from superschur.channels import (
    KrausChannel,
    Lindbladian,
    SuperOperatorMatrix,
    _check_channel_basis,
)
from superschur.liouville import OperatorBasis, vectorize
from superschur.oracle import letter_string_matrix


def kraus_superop_columns(channel: KrausChannel, basis: OperatorBasis) -> SuperOperatorMatrix:
    """Matrix of rho -> sum_mu F_mu rho F_mu^dag in the letter basis."""
    _check_channel_basis(channel, basis)
    dim = basis.dim
    mats = list(channel.kraus_ops)
    out = np.empty((dim, dim), dtype=np.complex128)
    for a in range(dim):
        B = letter_string_matrix(basis, a)
        image = sum(F @ B @ F.conj().T for F in mats)
        out[:, a] = vectorize(image, basis)
    return SuperOperatorMatrix(d=basis.d, n=basis.n, kind="channel", matrix=out)


def lindblad_superop_columns(lind: Lindbladian, basis: OperatorBasis) -> SuperOperatorMatrix:
    """Matrix of the generator rho -> -i[H, rho] + sum_k D[L_k](rho)."""
    _check_channel_basis(lind, basis)
    dim = basis.dim
    H = lind.hamiltonian
    jumps = list(lind.jump_ops)
    sinks = [L.conj().T @ L for L in jumps]
    out = np.empty((dim, dim), dtype=np.complex128)
    for a in range(dim):
        B = letter_string_matrix(basis, a)
        image = -1j * (H @ B - B @ H)
        for L, K in zip(jumps, sinks):
            image += L @ B @ L.conj().T - 0.5 * (K @ B + B @ K)
        out[:, a] = vectorize(image, basis)
    return SuperOperatorMatrix(d=basis.d, n=basis.n, kind="generator", matrix=out)
