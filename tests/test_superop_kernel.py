"""The batched monomial-letter superoperator kernel against the per-column oracle."""

import itertools

import numpy as np
import pytest

from superschur import (
    InternalConsistencyError,
    KrausChannel,
    Lindbladian,
    QuditOperator,
    example_channel,
    kraus_superop,
    lindblad_superop,
    operator_basis,
    orthogonalize_kraus,
)
from superschur.channels import EXAMPLE_CHANNELS
from superschur.liouville import OperatorBasis, pauli_letters

from superop_oracle import kraus_superop_columns, lindblad_superop_columns


def assert_matches_oracle(channel, basis):
    if isinstance(channel, KrausChannel):
        got, want = kraus_superop(channel, basis), kraus_superop_columns(channel, basis)
    else:
        got, want = lindblad_superop(channel, basis), lindblad_superop_columns(channel, basis)
    assert got.kind == want.kind
    scale = max(1.0, float(np.max(np.abs(want.matrix))))
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(EXAMPLE_CHANNELS))
def test_kernel_matches_oracle_on_example_families(name, n):
    assert_matches_oracle(example_channel(name, n=n), operator_basis(2, n))


def random_kraus(d, n, count, rng):
    dim = d**n
    Z = rng.standard_normal((count * dim, dim)) + 1j * rng.standard_normal((count * dim, dim))
    V, _ = np.linalg.qr(Z)  # an isometry: the stacked operators close to the identity
    ops = orthogonalize_kraus(d, n, [V[k * dim : (k + 1) * dim] for k in range(count)])
    return KrausChannel(d, n, tuple(QuditOperator(d, n, F) for F in ops))


def random_lindbladian(d, n, scale, rng):
    # strictly upper and strictly lower triangular jumps: traceless, not
    # normal, and orthogonal with an exactly zero overlap at any scale
    dim = d**n
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    H = scale * (X + X.conj().T) / 2
    jumps = []
    for k in (1, -1):
        L = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        L = np.sqrt(scale) * (np.triu(L, 1) if k > 0 else np.tril(L, -1))
        if dim > 1:
            assert np.max(np.abs(L @ L.conj().T - L.conj().T @ L)) > 1e-3 * scale
        jumps.append(QuditOperator(d, n, L))
    return Lindbladian(d, n, QuditOperator(d, n, H), tuple(jumps))


RANDOM_SIZES = [(3, 1), (3, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("d,n", RANDOM_SIZES)
def test_kernel_matches_oracle_on_random_kraus_sets(d, n):
    rng = np.random.default_rng(100 * d + n)
    assert_matches_oracle(random_kraus(d, n, 3, rng), operator_basis(d, n))


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("d,n", RANDOM_SIZES)
def test_kernel_matches_oracle_on_random_lindbladians(d, n, scale):
    rng = np.random.default_rng(100 * d + n)
    assert_matches_oracle(random_lindbladian(d, n, scale, rng), operator_basis(d, n))


def rotated_pauli_basis(V, n):
    letters = [V.conj().T @ P @ V for P in pauli_letters()]
    labels = list(itertools.product(range(4), repeat=n))
    return OperatorBasis(d=2, n=n, letters=letters, labels=labels)


def test_kernel_reads_permutations_and_phases_from_the_letters():
    # conjugating by the Hadamard permutes the Paulis up to sign (I, Z, -Y, X):
    # still a monomial basis, in another order and with other phases
    Had = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    basis = rotated_pauli_basis(Had, 2)
    for letter in basis.letters:
        letter[np.abs(letter) < 1e-15] = 0.0
    assert_matches_oracle(example_channel("collective_damping", n=2), basis)
    assert_matches_oracle(example_channel("collective_jump", n=2), basis)


def test_kernel_refuses_letters_that_are_not_monomial():
    # Paulis written in the Hadamard eigenbasis: X and Z become (X +- Z)/sqrt(2)
    _, V = np.linalg.eigh(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    basis = rotated_pauli_basis(V.astype(np.complex128), 2)
    with pytest.raises(InternalConsistencyError, match="not monomial"):
        kraus_superop(example_channel("collective_damping", n=2), basis)
    with pytest.raises(InternalConsistencyError, match="not monomial"):
        lindblad_superop(example_channel("transverse_ising", n=2), basis)
