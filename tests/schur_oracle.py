"""Reference construction of the adapted basis by full group sums.

This is the factorial builder the package used before the orthogonal-form
recursion and the Jucys-Murphy eigenspaces: the reference-tableau columns
come from the SVD of the n!-term matrix unit restricted to each
letter-content class, cut at ``RANK_TOL``, every other tableau from the
n!-term intertwiner E_{y,0}, and unitarity from the dense product
U^dagger U.  It is kept only as a test oracle for the production builder.
"""

from __future__ import annotations

import math

import numpy as np

from superschur.combinatorics import (
    kostka_numbers,
    letter_strings_by_weight,
    partitions,
    syt_dimension,
    weyl_dimension,
)
from superschur.liouville import check_liouville_dim
from superschur.permutations import all_permutations, inverse, string_index_map
from superschur.schur import (
    SIGN_TOL,
    ColumnLabel,
    SuperSchurBasis,
    _layout,
    irrep_matrices,
)

RANK_TOL = 1e-8


def dense_unitarity_deviation(U: np.ndarray) -> float:
    """max |U^dagger U - I| from the full product."""
    G = U.conj().T @ U
    return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def factorial_basis(d: int, n: int) -> SuperSchurBasis:
    q = d * d
    dim = check_liouville_dim(d, n)
    perms = all_permutations(n)
    fwd = {p: string_index_map(p, q, n) for p in perms}
    gather = {p: fwd[inverse(p)] for p in perms}
    classes = letter_strings_by_weight(q, n)
    nfact = math.factorial(n)
    blocks: list[np.ndarray] = []
    labels: list[ColumnLabel] = []
    for shape in partitions(n, min(n, q)):
        rep = irrep_matrices(shape, n)
        syt = syt_dimension(shape)
        scale = syt / nfact
        m_lam = weyl_dimension(shape, q)
        kostka = kostka_numbers(shape, q)
        V0 = np.zeros((dim, m_lam))
        col_meta: list[tuple[tuple[int, ...], int]] = []
        pos = 0
        for content in sorted(classes, key=lambda w: classes[w][0]):
            expected = kostka.get(content, 0)
            if expected == 0:
                continue
            cls = np.asarray(classes[content])
            size = len(cls)
            local = np.empty(dim, dtype=np.intp)
            local[cls] = np.arange(size)
            A = np.zeros((size, size))
            for p in perms:
                c = rep[p][0, 0] * scale
                if c != 0.0:
                    A[local[fwd[p][cls]], np.arange(size)] += c
            u, s, _ = np.linalg.svd(A)
            rank = int(np.sum(s > RANK_TOL))
            assert rank == expected
            block = u[:, :rank]
            for j in range(rank):
                lead = block[np.argmax(np.abs(block[:, j]) > SIGN_TOL), j]
                if lead < 0:
                    block[:, j] = -block[:, j]
            V0[cls, pos : pos + rank] = block
            col_meta.extend((content, j) for j in range(rank))
            pos += rank
        assert pos == m_lam
        sector = [V0]
        for y in range(1, syt):
            Vy = np.zeros_like(V0)
            for p in perms:
                c = rep[p][y, 0] * scale
                if c != 0.0:
                    Vy += c * V0[gather[p]]
            sector.append(Vy)
        for y, Vy in enumerate(sector):
            blocks.append(Vy)
            labels.extend(ColumnLabel(shape, y, content, j) for content, j in col_meta)
    U = np.hstack(blocks)
    assert dense_unitarity_deviation(U) < 1e-10
    # the class blocks, at the rows and columns the layout gives each class
    placed = _layout(d, n).classes.values()
    basis = SuperSchurBasis(d, n, [U[np.ix_(rows, cols)] for rows, cols in placed])
    # the layout built here, independently of the production labels
    assert tuple(labels) == basis.labels
    return basis
