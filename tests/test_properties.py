"""Property tests on random qubit Lindbladians.

A generator built from collective sums of one single-site Hamiltonian and
one traceless jump is S_n-symmetric: it must decompose into one block per
shape, and its blockwise exponential must match the dense one in the
frame.  The same pieces with a different weight on every site break the
symmetry, and the blockwise exponential must refuse them.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from superschur import (
    BlockStructureError,
    Lindbladian,
    blockwise_exp,
    decompose,
    lindblad_superop,
    operator_basis,
    super_schur_basis,
)

PROPERTY_SETTINGS = settings(max_examples=12, derandomize=True, database=None, deadline=None)

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def single_site(draw):
    """A Hermitian h and a traceless jump l of unit Frobenius norm."""
    a, b, c, e = (draw(unit) for _ in range(4))
    h = np.array([[a, b + 1j * c], [b - 1j * c, e]])
    x, y, z = (draw(unit) + 1j * draw(unit) for _ in range(3))
    jump = np.array([[x, y], [z, -x]])
    norm = np.linalg.norm(jump)
    jump = jump / norm if norm > 1e-3 else np.array([[0.0, 1.0], [0.0, 0.0]])
    return h, jump


def on_site(op, k, n):
    return reduce(np.kron, [op if j == k else np.eye(2) for j in range(n)])


def generator(n, h, jump, weights, collective):
    """H = sum_k w_k h_k, and one collective jump sum_k w_k l_k or one
    jump sqrt(w_k) l_k per site (orthogonal, l being traceless)."""
    H = sum(w * on_site(h, k, n) for k, w in enumerate(weights))
    if collective:
        jumps = [sum(w * on_site(jump, k, n) for k, w in enumerate(weights))]
    else:
        jumps = [np.sqrt(w) * on_site(jump, k, n) for k, w in enumerate(weights)]
    return Lindbladian(2, n, H, tuple(jumps))


@pytest.mark.parametrize("collective", [True, False], ids=["collective", "per-site"])
@PROPERTY_SETTINGS
@given(n=st.integers(2, 4), ops=single_site(), t=st.floats(0.0, 2.0))
def test_symmetric_generators_decompose_and_exponentiate_by_shape(collective, n, ops, t):
    basis = super_schur_basis(2, n)
    lind = generator(n, *ops, [1.0] * n, collective)
    decomp = decompose(lindblad_superop(lind, operator_basis(2, n)), basis)
    assert list(decomp.blocks) == list(basis.shapes)
    evolved = blockwise_exp(decomp, t)
    assert list(evolved.blocks) == list(basis.shapes)
    scale = max(1.0, max(float(np.max(np.abs(E))) for E in evolved.blocks.values()))
    assert evolved.dense_deviation(expm(t * decomp.frame)) <= 1e-10 * scale


@pytest.mark.parametrize("collective", [True, False], ids=["collective", "per-site"])
@PROPERTY_SETTINGS
@given(n=st.integers(2, 4), ops=single_site(), step=st.floats(0.1, 1.0))
def test_site_dependent_generators_are_refused(collective, n, ops, step):
    basis = super_schur_basis(2, n)
    # the jump alone breaks the symmetry: its weights differ by step or more
    lind = generator(n, *ops, [1.0 + k * step for k in range(n)], collective)
    decomp = decompose(lindblad_superop(lind, operator_basis(2, n)), basis)
    assert list(decomp.blocks) == list(basis.shapes)
    with pytest.raises(BlockStructureError, match="exceeds tolerance"):
        blockwise_exp(decomp, 1.0)
