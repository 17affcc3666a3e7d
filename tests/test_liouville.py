import dataclasses
import itertools
import math
import re
from functools import reduce

import numpy as np
import pytest

from superschur import (
    DimensionMismatchError,
    KrausChannel,
    Lindbladian,
    SizeGuardError,
    SuperSchurBasis,
    example_channel,
    max_liouville_dim,
    operator_basis,
    orthogonalize_kraus,
    single_site_letters,
    super_schur_basis,
    vectorize,
)
from superschur import liouville
from superschur.liouville import OperatorBasis
from superschur.oracle import devectorize, letter_string_matrix, permutation_matrix
from superschur.permutations import all_permutations, compose

from vectorize_oracle import monomial_letters, string_monomials

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


# ---------------------------------------------------------------------------
# letters and inner product


def test_single_site_letters_qubit():
    letters = single_site_letters(2)
    assert len(letters) == 4
    for got, want in zip(letters, (I2, X, Y, Z)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_single_site_letters_unitary_and_orthonormal(d):
    letters = single_site_letters(d)
    assert len(letters) == d * d
    assert np.array_equal(letters[0], np.eye(d))
    for a in letters:
        assert np.max(np.abs(a.conj().T @ a - np.eye(d))) < 1e-12
    gram = np.array(
        [[np.trace(a.conj().T @ b) / d for b in letters] for a in letters]
    )
    assert np.max(np.abs(gram - np.eye(d * d))) < 1e-12


# ---------------------------------------------------------------------------
# operator bases


def test_operator_basis_single_qubit_is_pauli():
    basis = operator_basis(2, 1)
    assert basis.dim == 4
    for a, want in enumerate((I2, X, Y, Z)):
        assert np.array_equal(letter_string_matrix(basis, a), want)


def test_operator_basis_two_qubits():
    basis = operator_basis(2, 2)
    assert basis.dim == 16
    assert np.array_equal(letter_string_matrix(basis, 0), np.eye(4))
    # letter-string (1, 2) is X (x) Y
    assert np.array_equal(letter_string_matrix(basis, 1 * 4 + 2), np.kron(X, Y))


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_operator_basis_gram_is_identity(d, n):
    basis = operator_basis(d, n)
    dim = (d * d) ** n
    flat = np.array([letter_string_matrix(basis, a).reshape(-1) for a in range(dim)])
    gram = flat.conj() @ flat.T / d**n
    assert np.max(np.abs(gram - np.eye(dim))) < 1e-12


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_letter_string_matrix_is_the_kronecker_product_of_its_letters(d, n):
    basis = operator_basis(d, n)
    letters = single_site_letters(d)
    for b, string in enumerate(itertools.product(range(d * d), repeat=n)):
        got = letter_string_matrix(basis, b)
        want = reduce(np.kron, (letters[a] for a in string))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (b, string)


# ---------------------------------------------------------------------------
# vectorization


def test_vectorize_identity_and_pure_strings():
    basis = operator_basis(2, 3)
    v = vectorize(np.eye(8), basis)
    want = np.zeros(64)
    want[0] = 1.0
    assert np.max(np.abs(v - want)) < 1e-12

    v = vectorize(np.kron(np.kron(X, X), Y), basis)
    want = np.zeros(64)
    want[int("112", 4)] = 1.0
    assert np.max(np.abs(v - want)) < 1e-12


def test_vectorize_known_coefficients():
    basis = operator_basis(2, 1)
    v = vectorize(I2 + Z, basis)
    assert np.max(np.abs(v - np.array([1.0, 0, 0, 1.0]))) < 1e-12
    v = vectorize(np.array([[1.0, 0.0], [0.0, 0.0]]), basis)
    assert np.max(np.abs(v - np.array([0.5, 0, 0, 0.5]))) < 1e-12


def test_devectorize_inverts_vectorize():
    rng = np.random.default_rng(11)
    for d, n in [(2, 2), (2, 3), (3, 2)]:
        basis = operator_basis(d, n)
        dim = d**n
        for _ in range(5):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            back = devectorize(vectorize(m, basis), basis)
            assert np.max(np.abs(back - m)) < 1e-12
        v = rng.standard_normal((d * d) ** n) + 1j * rng.standard_normal((d * d) ** n)
        round_trip = vectorize(devectorize(v, basis), basis)
        assert np.max(np.abs(round_trip - v)) < 1e-12


def test_devectorize_unit_vector_and_length_check():
    basis = operator_basis(2, 2)
    e0 = np.zeros(16)
    e0[0] = 1.0
    assert np.array_equal(devectorize(e0, basis), np.eye(4))
    with pytest.raises(DimensionMismatchError):
        devectorize(np.zeros(15), basis)


def test_devectorize_known_three_letter_combination():
    basis = operator_basis(2, 3)
    v = np.zeros(64, dtype=np.complex128)
    v[int("112", 4)] = math.sqrt(2 / 3)
    v[int("121", 4)] = -math.sqrt(1 / 6)
    v[int("211", 4)] = -math.sqrt(1 / 6)
    want = (
        math.sqrt(2 / 3) * np.kron(np.kron(X, X), Y)
        - math.sqrt(1 / 6) * np.kron(np.kron(X, Y), X)
        - math.sqrt(1 / 6) * np.kron(np.kron(Y, X), X)
    )
    assert np.max(np.abs(devectorize(v, basis) - want)) < 1e-12


def test_vectorize_preserves_inner_product():
    rng = np.random.default_rng(5)
    basis = operator_basis(2, 2)
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.vdot(vectorize(a, basis), vectorize(b, basis)) == pytest.approx(
            np.vdot(a, b) / 4, abs=1e-12
        )


# ---------------------------------------------------------------------------
# permutation representations: oracle.permutation_matrix with base d acts
# on states, with base d*d on letter strings


def test_perm_rep_identity():
    assert np.array_equal(permutation_matrix((0, 1), 2, 2), np.eye(4))
    assert np.array_equal(permutation_matrix((0, 1), 4, 2), np.eye(16))


def test_hilbert_swap_moves_computational_strings():
    # |01> (index 1) goes to |10> (index 2)
    P = permutation_matrix((1, 0), 2, 2)
    e01 = np.zeros(4)
    e01[1] = 1.0
    assert np.argmax(P @ e01) == 2
    assert np.array_equal(P, P.T)  # a swap is an involution


def test_perm_rep_matrices_are_permutation_matrices():
    for p in all_permutations(3):
        for m in (permutation_matrix(p, 2, 3), permutation_matrix(p, 4, 3)):
            assert np.array_equal(m, m.astype(bool).astype(m.dtype))
            assert np.array_equal(m.sum(axis=0), np.ones(m.shape[0]))
            assert np.array_equal(m.sum(axis=1), np.ones(m.shape[0]))


@pytest.mark.parametrize("n", [2, 3])
def test_perm_rep_homomorphism_exhaustive(n):
    for base in (2, 4):
        reps = {p: permutation_matrix(p, base, n) for p in all_permutations(n)}
        for p, q in itertools.product(all_permutations(n), repeat=2):
            assert np.array_equal(reps[compose(p, q)], reps[p] @ reps[q])


def test_perm_rep_homomorphism_sampled_n4():
    perms = all_permutations(4)
    rng = np.random.default_rng(3)
    picks = rng.choice(len(perms), size=(20, 2))
    cache = {}

    def rep(p):
        if p not in cache:
            cache[p] = permutation_matrix(p, 4, 4)
        return cache[p]

    for i, j in picks:
        p, q = perms[i], perms[j]
        assert np.array_equal(rep(compose(p, q)), rep(p) @ rep(q))


def test_liouville_matrix_matches_conjugation():
    # vectorize(P rho P^dag) = L . vectorize(rho) on random operators
    rng = np.random.default_rng(7)
    basis = operator_basis(2, 3)
    for p in all_permutations(3):
        P, L = permutation_matrix(p, 2, 3), permutation_matrix(p, 4, 3)
        for _ in range(17):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            direct = vectorize(P @ m @ P.conj().T, basis)
            via_rep = L @ vectorize(m, basis)
            assert np.max(np.abs(direct - via_rep)) < 1e-12


def test_size_guard(monkeypatch):
    assert max_liouville_dim() == 4096
    monkeypatch.setenv("SCHUR_DFS_MAX_DIM", "10")
    assert max_liouville_dim() == 10
    with pytest.raises(SizeGuardError):
        operator_basis(2, 2)
    monkeypatch.setenv("SCHUR_DFS_MAX_DIM", "not-a-number")
    with pytest.raises(SizeGuardError):
        max_liouville_dim()


@pytest.mark.parametrize("d, n", [(1, 3), (0, 2), (-2, 2), (2, 0), (2, -1)])
@pytest.mark.parametrize(
    "build",
    [operator_basis, super_schur_basis, OperatorBasis, lambda d, n: SuperSchurBasis(d, n, ())],
    ids=["operator_basis", "super_schur_basis", "OperatorBasis", "SuperSchurBasis"],
)
def test_too_few_levels_or_sites_are_refused_at_every_basis_entry(build, d, n):
    with pytest.raises(DimensionMismatchError) as err:
        build(d, n)
    assert str(err.value) == f"need d >= 2 and n >= 1, got d={d}, n={n}"


SIZE_ENTRIES = {
    "operator_basis": operator_basis,
    "OperatorBasis": OperatorBasis,
    "super_schur_basis": super_schur_basis,
    "SuperSchurBasis": lambda d, n: SuperSchurBasis(d, n, super_schur_basis(2, 1).blocks),
    "KrausChannel": lambda d, n: KrausChannel(d, n, [np.eye(2)]),
    "Lindbladian": lambda d, n: Lindbladian(d, n, np.zeros((2, 2)), []),
    "orthogonalize_kraus": lambda d, n: orthogonalize_kraus(d, n, [np.eye(2)]),
}


@pytest.mark.parametrize("d, n", [(2.0, 1), (2, 1.5), (True, 1), (2, True), ("2", 1)])
@pytest.mark.parametrize("build", SIZE_ENTRIES.values(), ids=SIZE_ENTRIES.keys())
def test_sizes_that_are_not_integers_are_refused_at_every_entry(build, d, n):
    # a bool is refused although it compares as 0 or 1: (2, True) would
    # otherwise share the cache slot of (2, 1)
    with pytest.raises(TypeError) as err:
        build(d, n)
    assert str(err.value) == f"d and n must be integers (not bool), got d={d!r}, n={n!r}"


@pytest.mark.parametrize("build", SIZE_ENTRIES.values(), ids=SIZE_ENTRIES.keys())
def test_numpy_integer_sizes_are_accepted_at_every_entry(build):
    build(np.int64(2), np.int64(1))


# the builders take n alone (d = 2), so they sit beside SIZE_ENTRIES
@pytest.mark.parametrize("n", [2.5, 3.0, "3", True])
def test_example_channel_reads_n_as_every_size_entry_does(n):
    with pytest.raises(TypeError) as err:
        example_channel("collective_jump", n=n)
    assert str(err.value) == f"d and n must be integers (not bool), got d=2, n={n!r}"


def test_example_channel_accepts_a_numpy_integer_n():
    built = example_channel("collective_jump", n=np.int64(3))
    assert type(built.n) is int
    assert np.array_equal(built.jump_ops, example_channel("collective_jump", n=3).jump_ops)


def test_numpy_integer_sizes_cannot_wrap_past_the_size_guard():
    # (d*d)**n in int64 wraps to a negative number for d = 10**9, n = 2
    with pytest.raises(SizeGuardError):
        liouville.check_liouville_dim(np.int64(10**9), np.int64(2))


# ---------------------------------------------------------------------------
# one letter basis per (d, n) per process


def test_operator_basis_is_built_once_per_process():
    basis = operator_basis(2, 3)
    assert operator_basis(2, 3) is basis
    assert operator_basis(2, 2) is not basis


def test_cached_letter_basis_arrays_are_read_only():
    basis = operator_basis(2, 2)
    shared = [basis.gather, basis.w_outer, basis.w_inner, basis.order, basis.phase]
    shared += [basis.col_s, basis.lam]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.order = basis.order[::-1]
    assert operator_basis(2, 2).order[0] == 0


def test_letter_basis_size_guard_runs_on_a_cache_hit(monkeypatch):
    operator_basis(2, 2)
    monkeypatch.setenv("SCHUR_DFS_MAX_DIM", "10")
    with pytest.raises(SizeGuardError):
        operator_basis(2, 2)


def test_failed_letter_basis_build_is_not_cached(monkeypatch, fresh_builders):
    class Failed(Exception):
        pass

    def fail(d):
        raise Failed

    with monkeypatch.context() as m:
        m.setattr(liouville, "_letter_table", fail)
        with pytest.raises(Failed):
            operator_basis(2, 2)
    basis = operator_basis(2, 2)
    assert basis.col_s.shape == (4, 4)
    assert operator_basis(2, 2) is basis


def test_letter_basis_is_a_function_of_d_and_n():
    fields = dataclasses.fields(OperatorBasis)
    assert [f.name for f in fields if f.init] == [f.name for f in fields if f.compare] == ["d", "n"]
    basis = OperatorBasis(3, 2)
    assert basis is not operator_basis(3, 2)
    assert basis == operator_basis(3, 2) != OperatorBasis(2, 2)
    cached = dataclasses.astuple(operator_basis(3, 2))
    assert all(np.array_equal(a, b) for a, b in zip(dataclasses.astuple(basis), cached))


def test_letter_basis_runs_the_size_guard_before_it_allocates(monkeypatch):
    def refuse(*args):
        raise AssertionError("allocated before the size guard ran")

    monkeypatch.setattr(liouville, "_letter_table", refuse)
    monkeypatch.setattr(liouville, "_strings", refuse)
    with pytest.raises(SizeGuardError, match=re.escape("2**80 for d=2, n=40")):
        OperatorBasis(2, 40)


@pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)])
def test_string_tables_match_site_by_site_tables(d, n):
    basis = operator_basis(d, n)
    cols, phases = monomial_letters(single_site_letters(d))
    labels = np.array(list(itertools.product(range(d * d), repeat=n)))
    chunk = slice(basis.dim // 3, basis.dim // 3 + 7)
    # The basis writes a letter's phases as lambda_a W[k(a)], off the letter's
    # own by at most eps (exactly 0 for the Paulis).  A product of n unit
    # phases is then off by at most n eps, plus the roundoff of the 2n - 1
    # complex products the basis takes and the n - 1 the site tables take,
    # sqrt(5) u each.
    one = operator_basis(d, 1).rows(slice(None))[1]
    eps = np.max(np.abs(one - phases))
    bound = n * eps + (3 * n - 2) * np.sqrt(5) * np.finfo(float).eps / 2
    got = basis.rows(chunk)
    index, phase = string_monomials(cols, phases, labels[chunk])
    assert np.array_equal(got[0], index)
    if d == 2:
        assert np.array_equal(got[1], phase)
    else:
        assert np.max(np.abs(got[1] - phase)) <= bound
