"""The table-driven vectorize against the site-by-site contraction oracle."""

import numpy as np
import pytest

from superschur import (
    DimensionMismatchError,
    operator_basis,
    vectorize,
)
from superschur.oracle import letter_string_matrix

from vectorize_oracle import vectorize_by_sites

SIZES = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 4)]


def random_operators(d, n, rng):
    dim = d**n
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return {"complex": X, "hermitian": (X + X.conj().T) / 2}


def assert_matches_oracle(matrix, basis):
    want = vectorize_by_sites(matrix, basis)
    assert np.max(np.abs(vectorize(matrix, basis) - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("d,n", SIZES)
def test_vectorize_matches_site_contraction(d, n):
    rng = np.random.default_rng(10 * d + n)
    basis = operator_basis(d, n)
    for matrix in random_operators(d, n, rng).values():
        assert_matches_oracle(matrix, basis)


def test_vectorize_of_a_letter_string_is_a_unit_vector():
    basis = operator_basis(3, 2)
    for b in (0, 5, 40, 80):
        v = vectorize(letter_string_matrix(basis, b), basis)
        assert np.max(np.abs(v - np.eye(81)[b])) < 1e-14


def test_vectorize_refuses_a_matrix_of_another_shape():
    basis = operator_basis(2, 2)
    for shape in [(2, 2), (4, 2), (16,), (8, 8)]:
        with pytest.raises(DimensionMismatchError, match=r"need \(4, 4\)"):
            vectorize(np.zeros(shape), basis)


def test_table_is_real_for_the_paulis_only():
    assert operator_basis(2, 3).real
    assert not operator_basis(3, 2).real
