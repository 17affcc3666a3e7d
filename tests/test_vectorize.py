"""The planned vectorize against the site-by-site contraction oracle."""

import numpy as np
import pytest

from superschur import InternalConsistencyError, QuditOperator, operator_basis, vectorize
from superschur.liouville import OperatorBasis

from vectorize_oracle import hadamard_pauli_basis, rotated_pauli_basis, vectorize_by_sites

SIZES = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 4)]


def random_operators(d, n, rng):
    dim = d**n
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return {"complex": X, "hermitian": (X + X.conj().T) / 2}


def assert_matches_oracle(matrix, basis):
    op = QuditOperator(basis.d, basis.n, matrix)
    want = vectorize_by_sites(op, basis)
    assert np.max(np.abs(vectorize(op, basis) - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("d,n", SIZES)
def test_vectorize_matches_site_contraction(d, n):
    rng = np.random.default_rng(10 * d + n)
    basis = operator_basis(d, n)
    for matrix in random_operators(d, n, rng).values():
        assert_matches_oracle(matrix, basis)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_vectorize_reads_groups_and_phases_from_the_letters(n):
    # I, Z, -Y, X: the identity group comes in another order and the flip
    # group with other phases
    rng = np.random.default_rng(n)
    basis = hadamard_pauli_basis(n)
    for matrix in random_operators(2, n, rng).values():
        assert_matches_oracle(matrix, basis)


def test_vectorize_of_a_letter_string_is_a_unit_vector():
    basis = operator_basis(3, 2)
    for b in (0, 5, 40, 80):
        v = vectorize(QuditOperator(3, 2, basis.element_matrix(b)), basis)
        assert np.max(np.abs(v - np.eye(81)[b])) < 1e-14


def test_plan_is_built_once_per_basis():
    basis = operator_basis(2, 3)
    assert basis.vectorize_plan is basis.vectorize_plan
    assert basis.vectorize_plan.real
    assert not operator_basis(3, 2).vectorize_plan.real


def test_vectorize_refuses_letters_that_do_not_factor():
    # monomial and orthonormal, but the flip group's phase matrix is
    # H diag(1, i), not diag(lambda) H
    letters = [
        np.eye(2, dtype=np.complex128),
        np.diag([1.0, -1.0]).astype(np.complex128),
        np.array([[0, 1], [1j, 0]]),
        np.array([[0, 1], [-1j, 0]]),
    ]
    gram = np.array([[np.vdot(a, b) / 2 for b in letters] for a in letters])
    assert np.max(np.abs(gram - np.eye(4))) == 0.0
    basis = OperatorBasis(d=2, n=2, letters=letters, labels=operator_basis(2, 2).labels)
    with pytest.raises(InternalConsistencyError, match="do not factor"):
        vectorize(QuditOperator(2, 2, np.eye(4)), basis)


def test_vectorize_refuses_unbalanced_permutation_groups():
    # three letters on the identity permutation, one on the flip
    letters = [np.eye(2), np.diag([1.0, -1.0]), np.diag([1.0, 1j]), np.array([[0, 1], [1, 0]])]
    basis = OperatorBasis(d=2, n=1, letters=[np.asarray(a, complex) for a in letters],
                          labels=[(a,) for a in range(4)])
    with pytest.raises(InternalConsistencyError, match=r"groups of sizes \[3, 1\]"):
        vectorize(QuditOperator(2, 1, np.eye(2)), basis)


def test_vectorize_refuses_letters_that_are_not_monomial():
    _, V = np.linalg.eigh(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))
    basis = rotated_pauli_basis(V.astype(np.complex128), 1)
    with pytest.raises(InternalConsistencyError, match="not monomial"):
        vectorize(QuditOperator(2, 1, np.eye(2)), basis)
