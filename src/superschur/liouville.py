"""Orthonormal letter bases for n qudits, and vectorization.

An operator on n qudits of local dimension d is a plain d**n x d**n array
throughout the package; a channel or generator holds its operators as one
(K, d**n, d**n) stack (see ``superschur.channels``).  The inner product
throughout is the normalized trace pairing ``<A, B> = Tr[A^dag B] / d**n``,
under which the tensor-product letter basis is orthonormal.  Vectorization
writes an operator as its coefficient vector in that basis, so
superoperators become ordinary matrices acting on letter-string
coordinates.

Vectorization runs from a plan built once per basis, which is also the
basis's one monomial table.  Both follow from one table per d that writes
each letter as ``c X^j Z^k`` (:func:`single_site_letters`): every letter
is monomial (one nonzero per row and column), the d*d letters fall into d
groups that share one permutation of the columns (one per shift j), and
the phases of the letters with clock power k are ``lambda W[k]`` with W
the diagonals of the clock powers (the +-1 Hadamard matrix for the
Paulis, the Fourier matrix for clock-shift letters).  The string with
groups s and clock powers k then has its nonzero in row R at column
``col_s(R)``, with value ``Lambda W^{(x)n}[k, R]``, which the plan's
``rows`` gives per string; the superoperator kernel takes the D strings of
one group s together.  Its coefficient of X is
``conj(Lambda) / d**n * sum_R conj(W^{(x)n})[k, R] X[R, col_s(R)]``: one
gather of X, one product with ``conj(W)^{(x)n}`` (taken as two products
with its Kronecker halves) and one gather with phases into letter order.

:func:`operator_basis` builds the basis of each (d, n) once per process
and returns that one read-only object on every later call; the size guard
still runs on every call.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, SizeGuardError

DEFAULT_MAX_DIM = 4096
_MAX_DIM_ENV = "SCHUR_DFS_MAX_DIM"


def max_liouville_dim() -> int:
    """Largest dense Liouville dimension d**(2n) the package will build.

    Override with the SCHUR_DFS_MAX_DIM environment variable.
    """
    raw = os.environ.get(_MAX_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise SizeGuardError(f"{_MAX_DIM_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise SizeGuardError(f"{_MAX_DIM_ENV} must be positive, got {value}")
    return value


def check_liouville_dim(d: int, n: int) -> int:
    """(d*d)**n, or SizeGuardError when it exceeds the limit.  For d >= 2
    the power exceeds every limit of fewer than n bits, so it is formed
    only when it is small enough to compare, and the message names it as
    d**(2n): the digits of the power, or of d*d, can run past Python's
    int-to-text limit, while d was itself read from text."""
    q, limit = d * d, max_liouville_dim()
    if (q > 1 and n > limit.bit_length()) or q**n > limit:
        raise SizeGuardError(
            f"Liouville dimension {d}**{2 * n} for d={d}, n={n} exceeds the limit "
            f"{limit}; raise {_MAX_DIM_ENV} to proceed"
        )
    return q**n


def _letter_table(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The letters of one site as ``c_a X^j_a Z^k_a``: the shift powers j,
    the clock powers k and the phases c, indexed by letter a.

    X shifts |m> to |m+1 mod d>.  At d = 2 the letters are I, X, Y = iXZ,
    Z; above, letter a = j*d + k is X^j Z^k with phase 1.
    """
    if d == 2:
        return np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1]), np.array([1, 1, 1j, 1])
    j, k = np.divmod(np.arange(d * d), d)
    return j, k, np.ones(d * d, dtype=np.complex128)


def _clock_powers(d: int) -> np.ndarray:
    """W[k] = the diagonal of Z^k, for k < d.  The clock Z is Pauli Z
    exactly at d = 2 (not exp(i pi)) and diag(omega**m) above, so W is
    the +-1 Hadamard matrix for the Paulis and the Fourier matrix above."""
    clock = np.array([1.0, -1.0]) if d == 2 else np.exp(2j * np.pi / d) ** np.arange(d)
    # powers of the matrix, not of its entries: matrix_power's order of
    # products fixes the last bit of each phase, and reports are compared
    # byte for byte
    Z = np.diag(clock.astype(np.complex128))
    return np.array([np.diagonal(np.linalg.matrix_power(Z, k)) for k in range(d)])


def single_site_letters(d: int) -> list[np.ndarray]:
    """The d*d letters of one site, ``c_a X^j_a Z^k_a``: I, X, Y, Z for
    d = 2 and the clock-shift letters X^j Z^k (index j*d + k) above.

    Unitary, orthogonal under the normalized trace pairing, and letter 0
    is the identity.  Each call returns new, writable arrays.
    """
    if d < 2:
        raise DimensionMismatchError(f"local dimension must be >= 2, got {d}")
    shift, power, phase = _letter_table(d)
    W = _clock_powers(d)
    rows = np.arange(d)
    letters = []
    for j, k, c in zip(shift, power, phase):
        letter = np.zeros((d, d), dtype=np.complex128)
        cols = (rows - j) % d
        letter[rows, cols] = c * W[k, cols]
        letters.append(letter)
    return letters


@dataclass(frozen=True)
class OperatorBasis:
    """Tensor-product letter basis of the operator space of n qudits.

    Element a is the tensor product of the single-site letters
    (:func:`single_site_letters`) indexed by the digits of the
    lexicographically ordered letter string ``labels[a]``; element 0 is the
    identity.  Everything is a function of (d, n): the letters, the labels
    and the vectorize plan, the basis's one monomial table, which
    :func:`vectorize` and the superoperator kernel both read, are built on
    construction, after the size guard.  The instance is frozen, its
    containers are tuples and its arrays read-only, so a basis shared
    between callers cannot be edited.
    """

    d: int
    n: int
    letters: tuple[np.ndarray, ...] = field(init=False, compare=False)
    labels: tuple[tuple[int, ...], ...] = field(init=False, compare=False)
    vectorize_plan: _VectorizePlan = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        d, n = self.d, self.n
        check_liouville_dim(d, n)
        object.__setattr__(self, "letters", _read_only(*single_site_letters(d)))
        object.__setattr__(self, "labels", tuple(itertools.product(range(d * d), repeat=n)))
        object.__setattr__(self, "vectorize_plan", _VectorizePlan.build(d, n))

    @property
    def dim(self) -> int:
        return (self.d * self.d) ** self.n

    def element_matrix(self, a: int) -> np.ndarray:
        return reduce(np.kron, (self.letters[i] for i in self.labels[a]))


def operator_basis(d: int, n: int) -> OperatorBasis:
    """The Pauli (d = 2) or clock-shift letter basis of n qudits.

    Built once per (d, n) per process: every later call returns the same
    object.  The size guard (SCHUR_DFS_MAX_DIM) is checked on every call,
    cache hits included, and a build that raises is not kept.
    """
    check_liouville_dim(d, n)
    return _operator_basis(d, n)


_operator_basis = functools.cache(OperatorBasis)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays themselves, each marked read-only, so a stray write into
    an object shared between callers raises instead of corrupting it."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _strings(base: int, n: int) -> np.ndarray:
    """Every string of n digits below ``base``, one per row, in
    lexicographic order."""
    return np.asarray(list(itertools.product(range(base), repeat=n)), dtype=np.intp).reshape(-1, n)


@dataclass(frozen=True)
class _VectorizePlan:
    """The monomial table of the letter strings of (d, n), and the
    transforms that :func:`vectorize` runs.

    Letter a = ``c_a X^j Z^k`` has its entry in row r at column
    ``(r + g(a)) mod d`` with ``g(a) = -j mod d``, and that entry is
    ``lambda_a W[k, r]`` with ``lambda_a = c_a W[k, g(a)]`` (its entry in
    row 0) and W the clock powers.  So a string b with groups s and clock
    powers k has the entry ``Lambda_b W^{(x)n}[k, R]`` at ``(R, col_s(R))``,
    which :meth:`rows` reads off, W^{(x)n} being the conjugate of the
    Kronecker product of the halves ``w_outer`` and ``w_inner``, and
    ``<B_b, X> = conj(Lambda_b) / D * T[k, s]`` with
    ``T = conj(W)^{(x)n} G`` and ``G[R, s] = X[R, col_s(R)]``.
    """

    col_s: np.ndarray  # (D, D): col_s[s, R] = col_s(R)
    lam: np.ndarray  # (dim,) Lambda_b
    gather: np.ndarray  # (D*D,) flat index into X: G[R, s] = X[R, col_s(R)]
    w_outer: np.ndarray  # conj(W)^{(x) ceil(n/2)}, float64 when W is real
    w_inner: np.ndarray  # conj(W)^{(x) floor(n/2)}
    real: bool
    order: np.ndarray  # (dim,) flat position k*D + s of each label in T
    phase: np.ndarray  # (dim,) conj(Lambda_b) / D

    def __post_init__(self) -> None:
        _read_only(self.col_s, self.lam, self.gather)
        _read_only(self.w_outer, self.w_inner, self.order, self.phase)

    @classmethod
    def build(cls, d: int, n: int) -> _VectorizePlan:
        D = d**n
        shift, power, c = _letter_table(d)
        W = _clock_powers(d)
        group = -shift % d
        Wc = np.conj(W)
        real = not np.any(Wc.imag)
        if real:
            Wc = np.ascontiguousarray(Wc.real)
        one = np.ones((1, 1), dtype=Wc.dtype)
        labels = _strings(d * d, n)
        place = d ** np.arange(n - 1, -1, -1)
        digits = _strings(d, n)
        # digit i of col_s(R) is (R_i + s_i) mod d
        col_s = ((digits[:, None, :] + digits[None, :, :]) % d) @ place
        lam = np.prod((c * W[power, group])[labels], axis=1)
        return cls(
            col_s=col_s,
            lam=lam,
            gather=(np.arange(D)[:, None] * D + col_s.T).reshape(-1),
            w_outer=reduce(np.kron, [Wc] * ((n + 1) // 2), one),
            w_inner=reduce(np.kron, [Wc] * (n // 2), one),
            real=real,
            order=(power[labels] @ place) * D + group[labels] @ place,
            phase=np.conj(lam) / D,
        )

    def rows(self, labels: slice) -> tuple[np.ndarray, np.ndarray]:
        """(column index, value) of the nonzero in each row of the strings
        ``basis.labels[labels]``, each of shape (c, d**n)."""
        k, s = np.divmod(self.order[labels], len(self.col_s))
        w = np.conj(np.kron(self.w_outer, self.w_inner))
        return self.col_s[s], self.lam[labels, None] * w[k]


def vectorize(matrix: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Coefficient vector of the d**n x d**n array ``matrix`` in the letter
    basis.

    Runs the basis's cached :class:`_VectorizePlan`: one gather of the
    matrix, two small products with the Kronecker halves of
    ``conj(W)^{(x)n}`` (real at d = 2) and one gather with phases into
    letter order.  A matrix of another shape raises
    DimensionMismatchError.
    """
    X = np.asarray(matrix, dtype=np.complex128)
    D = basis.d**basis.n
    if X.shape != (D, D):
        raise DimensionMismatchError(
            f"matrix shape {X.shape} does not match basis (d={basis.d}, n={basis.n}): "
            f"need ({D}, {D})"
        )
    p = basis.vectorize_plan
    D1, D2 = p.w_outer.shape[0], p.w_inner.shape[0]
    G = X.ravel().take(p.gather)
    if p.real:
        # a complex row is a row of (re, im) pairs, so the real W acts on
        # real and imaginary parts in one real product
        G = G.view(np.float64)
    T = p.w_outer @ (p.w_inner @ G.reshape(D1, D2, -1)).reshape(D1, -1)
    if p.real:
        T = T.view(np.complex128)
    return T.ravel().take(p.order) * p.phase
