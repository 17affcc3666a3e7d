"""The batched monomial-letter superoperator kernel against the per-column oracle.

The kernel forms each chunk's images on one of two paths, chosen by the
operators: one sparse product with the map's Liouville matrix, or the dense
sandwich product.  The example families and the random sets below cover
both, and the tests at the end name the path each input takes.
"""

import itertools
from functools import reduce

import numpy as np
import pytest

from superschur import (
    KrausChannel,
    Lindbladian,
    QuditOperator,
    example_channel,
    kraus_superop,
    lindblad_superop,
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
# the two image paths


class _PathChosen(Exception):
    pass


@pytest.fixture
def paths(monkeypatch):
    """The image builders the kernel constructs, by class name, in order."""
    taken = []
    for name in ("_SparseImages", "_DenseImages"):
        def record(*args, _original=getattr(channels, name), _name=name):
            taken.append(_name)
            return _original(*args)

        monkeypatch.setattr(channels, name, record)
    return taken


def path_of(channel, monkeypatch):
    """'sparse' or 'dense': the path the kernel takes for ``channel``,
    stopped as soon as the image builder is chosen."""
    taken = []

    def stop(name):
        def record(*args):
            taken.append(name)
            raise _PathChosen

        return record

    with monkeypatch.context() as m:
        m.setattr(channels, "_SparseImages", stop("sparse"))
        m.setattr(channels, "_DenseImages", stop("dense"))
        with pytest.raises(_PathChosen):
            superop(channel, operator_basis(channel.d, channel.n))
    return taken[0]


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
    return KrausChannel(d, n, tuple(QuditOperator(d, n, F) for F in ops))


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
        jumps.append(QuditOperator(d, n, L))
    return Lindbladian(d, n, QuditOperator(d, n, H), tuple(jumps))


# (d, n, noisy sites): sizes whose monomial sets stay within the sparse share
SPARSE_SIZES = [(2, 3, 1), (2, 4, 2), (3, 2, 1), (3, 3, 3)]


@pytest.mark.parametrize("d,n,noisy", SPARSE_SIZES)
def test_sparse_path_matches_oracle_on_monomial_kraus_sets(d, n, noisy, paths):
    rng = np.random.default_rng(10 * d + n)
    assert_matches_oracle(monomial_kraus(d, n, noisy, rng), operator_basis(d, n))
    assert paths == ["_SparseImages"]


# at d**n = 8 the terms (A, I) and (I, A') of A's diagonal alone fill
# 2 / d**(2n) = 3% of dim**2, and the couplings and jumps pass the share
@pytest.mark.parametrize("d,n", [(2, 4), (2, 5), (3, 3)])
def test_sparse_path_matches_oracle_on_sparse_lindbladians(d, n, paths):
    rng = np.random.default_rng(10 * d + n)
    lind = sparse_lindbladian(d, n, rng)
    assert np.any(lind.hamiltonian.matrix.imag)
    assert_matches_oracle(lind, operator_basis(d, n))
    assert paths == ["_SparseImages"]


@pytest.mark.parametrize("d,n", RANDOM_SIZES)
def test_random_dense_sets_take_the_dense_path(d, n, paths):
    rng = np.random.default_rng(100 * d + n)
    basis = operator_basis(d, n)
    kraus_superop(random_kraus(d, n, 3, rng), basis)
    lindblad_superop(random_lindbladian(d, n, 1.0, rng), basis)
    assert paths == ["_DenseImages", "_DenseImages"]


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
    lind = Lindbladian(d, n, QuditOperator(d, n, H), tuple(QuditOperator(d, n, L) for L in jumps))
    local = []
    for k in range(n):
        p = 0.1 + 0.12 * k
        if d == 2:
            local.append([np.diag([1.0, (1 - p) ** 0.5]).astype(np.complex128), p**0.5 * lower])
        else:
            local.append([(1 - p) ** 0.5 * eye, (p / 2) ** 0.5 * X, (p / 2) ** 0.5 * Z])
    ops = [reduce(np.kron, choice) for choice in itertools.product(*local)]
    kraus = KrausChannel(d, n, tuple(QuditOperator(d, n, F) for F in ops))
    return {f"lindblad_d{d}n{n}": lind, f"kraus_d{d}n{n}": kraus}


def test_each_benchmark_input_takes_its_path(monkeypatch):
    # correlated_damping's completion operator fills 30 of 32 entries per
    # row, so its Liouville matrix is dense; every other input is sparse
    inputs = {f"{name}_n5": example_channel(name, n=5) for name in sorted(EXAMPLE_CHANNELS)}
    inputs["collective_jump_n6"] = example_channel("collective_jump", n=6)
    inputs.update(explicit_files(2, 5))
    inputs.update(explicit_files(3, 3))
    sides = {name: path_of(channel, monkeypatch) for name, channel in inputs.items()}
    assert sides == {
        name: "dense" if name.startswith("correlated_damping") else "sparse" for name in inputs
    }


@pytest.mark.parametrize(
    "name,n,side",
    [("collective_damping", 3, "_SparseImages"), ("correlated_damping", 3, "_DenseImages"),
     ("single_jump", 3, "_DenseImages"), ("single_jump", 5, "_SparseImages")],
)
def test_vectorize_runs_once_per_column_on_either_path(name, n, side, monkeypatch, paths):
    calls = []

    def counting(matrix, basis):
        calls.append(1)
        return vectorize(matrix, basis)

    monkeypatch.setattr(channels, "vectorize", counting)
    basis = operator_basis(2, n)
    superop(example_channel(name, n=n), basis)
    assert paths == [side]
    assert len(calls) == basis.dim
