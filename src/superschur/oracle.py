"""Dense and whole-group reference constructions, kept as oracles.

The analyze and evolve paths act with a site permutation as an index
gather (``string_index_map``) and build no object here; ``superschur
verify`` and the tests use these textbook forms to check that path at small
sizes.  None of them is imported by ``channels``, ``liouville``, ``schur``,
``blockdiag`` or ``cli``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .combinatorics import Partition
from .errors import DimensionMismatchError
from .liouville import OperatorBasis, check_liouville_dim, single_site_letters
from .permutations import all_permutations, check_permutation, identity, string_index_map
from .schur import SuperSchurBasis, irrep_matrices


def permutation_matrix(pi: tuple[int, ...], base: int, n: int) -> np.ndarray:
    """Dense 0/1 matrix of the site permutation on base-``base`` digit
    strings, sending e_i to e_t[i] with ``t = string_index_map(pi, base, n)``.

    Base d gives the action on n-qudit states; base d*d the action on
    letter strings, which is the same digit shuffle because the letter
    basis is a site-wise tensor product.
    """
    t = string_index_map(pi, base, n)
    dim = base**n
    P = np.zeros((dim, dim))
    P[t, np.arange(dim)] = 1.0
    return P


def matrix_unit(shape: Partition, y: int, y0: int, d: int, n: int) -> np.ndarray:
    """Dense group-algebra matrix unit on letter strings.

    E_{y,y0} = (dim / n!) * sum_pi D(pi)[y, y0] * S_pi, with S_pi the
    string shuffle.  These satisfy E_{ij} E_{kl} = delta_{jk} E_{il}; the
    diagonal units are orthogonal projections.  The matrix is real.
    """
    full = check_liouville_dim(d, n)
    rep = irrep_matrices(shape, n)
    dim = len(rep[identity(n)])
    if not (0 <= y < dim and 0 <= y0 < dim):
        raise ValueError(f"tableau indices out of range for {shape}: {y}, {y0}")
    scale = dim / math.factorial(n)
    M = np.zeros((full, full))
    for p in all_permutations(n):
        M += rep[p][y, y0] * scale * permutation_matrix(p, d * d, n)
    return M


@dataclass(frozen=True)
class PermutationBlockStructure:
    """A site permutation expressed in the adapted basis."""

    pi: tuple[int, ...]
    matrix: np.ndarray
    irrep_blocks: dict
    multiplicities: dict
    leakage: float


def permutation_in_schur(pi: tuple[int, ...], basis: SuperSchurBasis) -> PermutationBlockStructure:
    """Conjugate the string shuffle of ``pi`` into the adapted basis and
    measure the leakage outside the predicted D(pi) x I block pattern."""
    pi = check_permutation(pi, basis.n)
    t = string_index_map(pi, basis.d * basis.d, basis.n)
    U = basis.unitary
    # the shuffle sends string i to t[i], so it gathers row k of U from t^-1[k]
    A = U.T @ U[np.argsort(t)]
    predicted = np.zeros_like(A)
    irrep_blocks = {}
    mults = {}
    for shape, sector in basis.sectors.items():
        D = irrep_matrices(shape, basis.n)[pi]
        sl = sector.columns
        predicted[sl, sl] = np.kron(D, np.eye(sector.multiplicity))
        irrep_blocks[shape] = D
        mults[shape] = sector.multiplicity
    leakage = float(np.max(np.abs(A - predicted)))
    return PermutationBlockStructure(
        pi=pi, matrix=A, irrep_blocks=irrep_blocks, multiplicities=mults, leakage=leakage
    )


def letter_string_matrix(basis: OperatorBasis, b: int) -> np.ndarray:
    """Dense d**n x d**n matrix of letter string b: the Kronecker product of
    the letters :func:`superschur.liouville.single_site_letters` names by
    the base-d*d digits of b, most significant first."""
    letters = single_site_letters(basis.d)
    return reduce(np.kron, [letters[a] for a in np.unravel_index(b, (basis.d**2,) * basis.n)])


def devectorize(v: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Inverse of :func:`superschur.liouville.vectorize`, as a d**n x d**n array."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (basis.dim,):
        raise DimensionMismatchError(f"vector length {v.shape} != basis dimension {basis.dim}")
    d, n = basis.d, basis.n
    q = d * d
    # N[a, s] = letter_a[s]; the coefficients are <letter_a, op>, so by
    # letter orthonormality contracting every site with N rebuilds op
    N = np.stack([letter.reshape(-1) for letter in single_site_letters(d)])
    t = v.reshape((q,) * n)
    for k in range(n):
        t = np.moveaxis(np.tensordot(N, t, axes=(0, k)), 0, k)
    t = t.reshape((d, d) * n)
    t = np.transpose(t, axes=[2 * k for k in range(n)] + [2 * k + 1 for k in range(n)])
    return t.reshape(d**n, d**n)
