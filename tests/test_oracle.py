"""The gathered symmetry certificate against the dense textbook formulas.

The certificate conjugates by the index gather ``F[s][:, s]`` and takes the
commutator as ``F[:, s] - F[s, :]``.  With P the dense 0/1 matrix of
``superschur.oracle.permutation_matrix`` every entry of ``P @ F @ P.T`` and
``F @ P - P @ F`` is one entry of F times 1 plus exact zeros, so the two
routes must agree under ``==``, not merely to a tolerance.
"""

import numpy as np
import pytest

from superschur import (
    EXAMPLE_CHANNELS,
    KrausChannel,
    Lindbladian,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
    example_channel,
    orthogonalize_kraus,
)
from superschur.oracle import permutation_matrix
from superschur.permutations import adjacent_transpositions

from dispatch import certificate


def dense_mixing(mats, P):
    """(U, expansion residual, unitarity deviation) by dense conjugation,
    with the stacked overlap and reconstruction products of
    ``mixing_unitary``, so that equal inputs give equal bits."""
    k = len(mats)
    S = np.stack(mats).reshape(k, -1)
    T = np.stack([P @ F @ P.T for F in mats]).reshape(k, -1)
    norms2 = np.einsum("ij,ij->i", S.conj(), S).real
    U = (S.conj() @ T.T) / norms2[:, None]
    residual = float(np.max(np.abs(T - U.T @ S)))
    return U, residual, float(np.max(np.abs(U.conj().T @ U - np.eye(k))))


def dense_certificate(ops, d, n, H=None):
    """(mixing unitaries, residuals) of the certificate, from dense P."""
    mats = list(ops)
    residuals = {}
    if H is not None:
        residuals["hamiltonian_invariance"] = max(
            float(np.max(np.abs(P @ H @ P.T - H)))
            for P in (permutation_matrix(g, d, n) for g in adjacent_transpositions(n))
        )
    comm = expansion = unitarity = 0.0
    unitaries = {}
    for g in adjacent_transpositions(n):
        P = permutation_matrix(g, d, n)
        for F in mats:
            comm = max(comm, float(np.max(np.abs(F @ P - P @ F))))
        if mats:
            U, res, udev = dense_mixing(mats, P)
        else:
            U, res, udev = np.eye(0, dtype=np.complex128), 0.0, 0.0
        unitaries[g] = U
        expansion, unitarity = max(expansion, res), max(unitarity, udev)
    residuals.update(strong_commutator=comm, expansion_residual=expansion, unitarity=unitarity)
    return unitaries, residuals


def assert_certificate_matches_dense(channel):
    cert = certificate(channel)
    if isinstance(channel, KrausChannel):
        unitaries, residuals = dense_certificate(channel.kraus_ops, channel.d, channel.n)
    else:
        unitaries, residuals = dense_certificate(
            channel.jump_ops, channel.d, channel.n, channel.hamiltonian
        )
    assert cert.residuals == residuals
    assert cert.generator_unitaries.keys() == unitaries.keys()
    for g, U in unitaries.items():
        assert np.array_equal(cert.generator_unitaries[g], U)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(EXAMPLE_CHANNELS))
def test_builder_certificate_equals_dense_formulas(name, n):
    assert_certificate_matches_dense(example_channel(name, n=n))


def random_asymmetric_kraus(d, n, rng, count=3):
    dim = d**n
    A = rng.standard_normal((count * dim, dim)) + 1j * rng.standard_normal((count * dim, dim))
    Q = np.linalg.qr(A)[0]
    mats = orthogonalize_kraus(d, n, [Q[k * dim : (k + 1) * dim] for k in range(count)])
    return KrausChannel(d, n, mats)


def random_asymmetric_lindblad(d, n, rng, count=3):
    dim = d**n
    jumps = []
    for _ in range(count):
        L = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        jumps.append(L - np.trace(L) / dim * np.eye(dim))
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = (A + A.conj().T) / 2
    mats = orthogonalize_kraus(d, n, jumps)
    return Lindbladian(d, n, H, mats)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_random_asymmetric_certificate_equals_dense_formulas(d, n):
    rng = np.random.default_rng(100 * d + n)
    for _ in range(3):
        kraus = random_asymmetric_kraus(d, n, rng)
        lind = random_asymmetric_lindblad(d, n, rng)
        assert classify_kraus_symmetry(kraus).classification == "none"
        assert classify_lindblad_symmetry(lind).classification == "none"
        for channel in (kraus, lind):
            assert_certificate_matches_dense(channel)


def test_permutation_matrix_swaps_tensor_factors_at_d3():
    # P_d (A (x) B) P_d^T is the product with its factors swapped, and the
    # letter string (a, b) goes to (b, a) under P_{d*d}
    rng = np.random.default_rng(0)
    A, B = (rng.standard_normal((3, 3)) for _ in range(2))
    P = permutation_matrix((1, 0), 3, 2)
    assert np.array_equal(P @ np.kron(A, B) @ P.T, np.kron(B, A))
    L = permutation_matrix((1, 0), 9, 2)
    assert L[5 * 9 + 2, 2 * 9 + 5] == 1.0 and L.sum() == 81
    with pytest.raises(ValueError, match="not a permutation"):
        permutation_matrix((0, 0), 2, 2)
