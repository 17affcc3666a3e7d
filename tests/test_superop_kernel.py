"""The shift-group superoperator kernel against the per-column oracle.

The kernel forms the images of the d**n letter strings of one shift group
at a time, whatever the operators.  The inputs below span what sets its
work apart: builder families, dense random sets, monomial Kraus sets and
sparse Lindbladians (real and complex, with and without a Hamiltonian), the
benchmark's explicit operator files, and the two families whose kernel
time changed most at n = 6.
"""

import itertools
from functools import reduce

import numpy as np
import pytest

from superschur import (
    KrausChannel,
    Lindbladian,
    example_channel,
    operator_basis,
    orthogonalize_kraus,
)
from superschur import channels
from superschur.channels import EXAMPLE_CHANNELS
from superschur.liouville import vectorize

from dispatch import superop, superop_columns


def assert_matches_oracle(channel, basis):
    got, want = superop(channel, basis), superop_columns(channel, basis)
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
    return KrausChannel(d, n, ops)


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
        jumps.append(L)
    return Lindbladian(d, n, H, jumps)


RANDOM_SIZES = [(3, 1), (3, 2), (3, 3), (4, 2)]


STORAGE_CASES = {
    "kraus-builder": lambda: example_channel("collective_damping", n=3),
    "lindblad-builder": lambda: example_channel("single_jump", n=3),
    "kraus-random": lambda: random_kraus(3, 2, 2, np.random.default_rng(5)),
    "lindblad-random": lambda: random_lindbladian(3, 2, 1.0, np.random.default_rng(6)),
}


@pytest.mark.parametrize("case", sorted(STORAGE_CASES))
def test_kernel_writes_its_matrix_in_f_order(case):
    channel = STORAGE_CASES[case]()
    M = superop(channel, operator_basis(channel.d, channel.n)).matrix
    # a view of the kernel's own buffer: F order without a copy
    assert M.flags.f_contiguous and M.base is not None


@pytest.mark.parametrize("d,n", RANDOM_SIZES)
def test_kernel_matches_oracle_on_random_kraus_sets(d, n):
    rng = np.random.default_rng(100 * d + n)
    assert_matches_oracle(random_kraus(d, n, 3, rng), operator_basis(d, n))


@pytest.mark.parametrize("scale", [1.0, 1e6])
@pytest.mark.parametrize("d,n", RANDOM_SIZES)
def test_kernel_matches_oracle_on_random_lindbladians(d, n, scale):
    rng = np.random.default_rng(100 * d + n)
    assert_matches_oracle(random_lindbladian(d, n, scale, rng), operator_basis(d, n))


# ---------------------------------------------------------------------------
# sparse, monomial and explicit inputs


def shift(d):
    return np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)


def random_phases(d, rng):
    return np.diag(np.exp(2j * np.pi * rng.random(d)))


def monomial_kraus(d, n, noisy, rng):
    """Products of per-site sets: on each of the first ``noisy`` sites the
    d operators sqrt(w_j) X^j Phi_j (weights summing to 1, random diagonal
    phases Phi_j), on the others one random diagonal phase.  Every
    operator is monomial, and the set closes and is orthogonal, as the
    shifts X^j have disjoint supports."""
    sites = []
    for k in range(n):
        if k < noisy:
            w = rng.random(d) + 0.1
            w /= w.sum()
            X = shift(d)
            sites.append([np.sqrt(w[j]) * np.linalg.matrix_power(X, j) @ random_phases(d, rng)
                          for j in range(d)])
        else:
            sites.append([random_phases(d, rng)])
    ops = [reduce(np.kron, choice) for choice in itertools.product(*sites)]
    return KrausChannel(d, n, ops)


def sparse_lindbladian(d, n, rng, couplings=3):
    """A complex Hermitian H with ``couplings`` random off-diagonal pairs
    and a random diagonal, and two weighted partial permutations as jumps,
    one strictly above and one strictly below the diagonal: traceless,
    orthogonal, and L^dag L diagonal."""
    dim = d**n
    H = np.diag(rng.standard_normal(dim)).astype(np.complex128)
    for _ in range(couplings):
        i, j = rng.choice(dim, size=2, replace=False)
        z = rng.standard_normal() + 1j * rng.standard_normal()
        H[i, j] += z
        H[j, i] += np.conj(z)
    perm = rng.permutation(dim)
    jumps = []
    for above in (True, False):
        L = np.zeros((dim, dim), dtype=np.complex128)
        rows = np.arange(dim)
        keep = perm > rows if above else perm < rows
        L[rows[keep], perm[keep]] = rng.standard_normal(keep.sum()) + 1j * rng.standard_normal(
            keep.sum()
        )
        jumps.append(L)
    return Lindbladian(d, n, H, jumps)


# (d, n, noisy sites): monomial sets whose Liouville matrix is sparse
SPARSE_SIZES = [(2, 3, 1), (2, 4, 2), (3, 2, 1), (3, 3, 3)]


# The next three tests keep the names they had when the kernel chose
# between a sparse and a dense product; every input now takes the one path.
@pytest.mark.parametrize("d,n,noisy", SPARSE_SIZES)
def test_sparse_path_matches_oracle_on_monomial_kraus_sets(d, n, noisy):
    rng = np.random.default_rng(10 * d + n)
    assert_matches_oracle(monomial_kraus(d, n, noisy, rng), operator_basis(d, n))


@pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 3)])
def test_sparse_path_matches_oracle_on_sparse_lindbladians(d, n):
    rng = np.random.default_rng(10 * d + n)
    lind = sparse_lindbladian(d, n, rng)
    assert np.any(lind.hamiltonian.imag)
    assert_matches_oracle(lind, operator_basis(d, n))


@pytest.mark.parametrize("d,n", RANDOM_SIZES)
def test_random_dense_sets_take_the_dense_path(d, n):
    rng = np.random.default_rng(100 * d + n)
    basis = operator_basis(d, n)
    assert_matches_oracle(random_kraus(d, n, 3, rng), basis)
    assert_matches_oracle(random_lindbladian(d, n, 1.0, rng), basis)


def explicit_files(d, n):
    """Operators shaped like the benchmark's explicit files: a Lindbladian
    with one damping jump per site, site fields and all-pairs hopping, and
    a Kraus map that is a product of a different local channel per site."""
    X = shift(d)
    Z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    eye = np.eye(d, dtype=np.complex128)

    def embed(ops):
        return reduce(np.kron, (ops.get(k, eye) for k in range(n)))

    lower = np.triu(X) if d == 2 else X
    jumps = [(0.2 + 0.15 * k) ** 0.5 * embed({k: lower}) for k in range(n)]
    H = sum((0.3 + 0.1 * k) * embed({k: Z + Z.conj().T}) for k in range(n))
    for i, j in itertools.combinations(range(n), 2):
        hop = embed({i: X, j: X.conj().T})
        H = H + (0.2 + 0.1 * (i + j)) * (hop + hop.conj().T)
    lind = Lindbladian(d, n, H, jumps)
    local = []
    for k in range(n):
        p = 0.1 + 0.12 * k
        if d == 2:
            local.append([np.diag([1.0, (1 - p) ** 0.5]).astype(np.complex128), p**0.5 * lower])
        else:
            local.append([(1 - p) ** 0.5 * eye, (p / 2) ** 0.5 * X, (p / 2) ** 0.5 * Z])
    ops = [reduce(np.kron, choice) for choice in itertools.product(*local)]
    kraus = KrausChannel(d, n, ops)
    return {f"lindblad_d{d}n{n}": lind, f"kraus_d{d}n{n}": kraus}


EXPLICIT_FILES = {**explicit_files(2, 5), **explicit_files(3, 3)}


@pytest.mark.parametrize("name", sorted(EXPLICIT_FILES))
def test_kernel_matches_oracle_on_explicit_operator_files(name):
    channel = EXPLICIT_FILES[name]
    assert_matches_oracle(channel, operator_basis(channel.d, channel.n))


# collective_jump (K = 3 jumps and a Hamiltonian) and correlated_damping
# (dense Kraus operators) at the n = 6 ceiling
@pytest.mark.parametrize("name", ["collective_jump", "correlated_damping"])
def test_kernel_matches_oracle_at_n6(name):
    assert_matches_oracle(example_channel(name, n=6), operator_basis(2, 6))


@pytest.mark.parametrize(
    "name,n",
    [("collective_damping", 3), ("correlated_damping", 3), ("single_jump", 3), ("single_jump", 5)],
    ids=lambda value: f"n{value}" if isinstance(value, int) else value,
)
def test_vectorize_runs_once_per_column(name, n, monkeypatch):
    calls = []

    def counting(matrix, basis):
        calls.append(1)
        return vectorize(matrix, basis)

    monkeypatch.setattr(channels, "vectorize", counting)
    basis = operator_basis(2, n)
    superop(example_channel(name, n=n), basis)
    assert len(calls) == basis.dim
