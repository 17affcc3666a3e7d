"""Reference vectorization by a site-by-site contraction, and monomial
tables read from the dense letters.

``vectorize_by_sites`` is the contraction the package used before the
per-basis gather-and-transform plan in ``superschur.liouville``: the
operator's axes are interleaved so that site k's index is ``i_k j_k``, and
each site in turn is contracted with the dual letter matrix
``M[a, s] = conj(letter_a[s]) / d``.  It reads only the letters, so it
needs no monomial structure, and is kept as a test oracle for
``vectorize``.  ``monomial_letters`` and ``string_monomials`` read the
position and phase of each letter's nonzeros from its dense matrix and
combine them site by site: the oracle for the basis's ``rows``, which
the package writes from its letter table instead.
"""

from __future__ import annotations

import numpy as np

from superschur.liouville import OperatorBasis, single_site_letters


def vectorize_by_sites(op: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Coefficient vector of the d**n x d**n array ``op`` in the letter
    basis, site by site."""
    d, n = basis.d, basis.n
    q = d * d
    M = np.stack([np.conj(letter.reshape(-1)) / d for letter in single_site_letters(d)])
    t = op.reshape((d,) * (2 * n))
    # (i_1..i_n, j_1..j_n) -> (i_1, j_1, ..., i_n, j_n): site k's index is i_k j_k
    t = np.transpose(t, axes=[ax for k in range(n) for ax in (k, n + k)])
    for _ in range(n):
        # contract the leading site; its letter index moves to the back
        t = (M @ t.reshape(q, -1)).T
    return t.reshape(-1)


def monomial_letters(letters) -> tuple[np.ndarray, np.ndarray]:
    """Column and value of the one nonzero in each row of every letter,
    read from the dense letters with ``np.nonzero``.

    Returns ``(cols, phases)`` of shape ``(d*d, d)``: letter a has the entry
    ``phases[a, r]`` at ``(r, cols[a, r])`` and zeros elsewhere.
    """
    d = len(letters[0])
    cols = np.empty((len(letters), d), dtype=np.intp)
    phases = np.empty((len(letters), d), dtype=np.complex128)
    for a, letter in enumerate(letters):
        rows, c = np.nonzero(letter)
        assert np.array_equal(rows, np.arange(d)) and np.unique(c).size == d, a
        cols[a] = c
        phases[a] = letter[rows, c]
    return cols, phases


def string_monomials(
    cols: np.ndarray, phases: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Site tables combined over the letter strings ``labels`` (c, n).

    Row R of the tensor product has its nonzero in column ``index[b, R]``
    with value ``phase[b, R]``; the phases multiply site by site in the
    order ``np.kron`` uses.
    """
    c, n = labels.shape
    d = cols.shape[1]
    index = np.zeros((c, 1), dtype=np.intp)
    phase = np.ones((c, 1), dtype=np.complex128)
    for k in range(n):
        lk = labels[:, k]
        index = (index[:, :, None] * d + cols[lk][:, None, :]).reshape(c, -1)
        phase = (phase[:, :, None] * phases[lk][:, None, :]).reshape(c, -1)
    return index, phase
