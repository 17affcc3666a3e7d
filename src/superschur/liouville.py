"""Orthonormal letter bases for n qudits, and vectorization.

An operator on n qudits of local dimension d is a plain d**n x d**n array
throughout the package; a channel or generator holds its operators as one
(K, d**n, d**n) stack (see ``superschur.channels``).  The inner product
throughout is the normalized trace pairing ``<A, B> = Tr[A^dag B] / d**n``,
under which the tensor-product letter basis is orthonormal.  Vectorization
writes an operator as its coefficient vector in that basis, so
superoperators become ordinary matrices acting on letter-string
coordinates.

A basis is its monomial table (:class:`OperatorBasis`), the one table of
letter strings that vectorization and the superoperator kernel read.  It
follows from one table per d that writes each letter as ``c X^j Z^k``
(:func:`single_site_letters`): every letter is monomial (one nonzero per
row and column), the d*d letters fall into d groups that share one
permutation of the columns (one per shift j), and the phases of the
letters with clock power k are ``lambda W[k]`` with W the diagonals of the
clock powers (the +-1 Hadamard matrix for the Paulis, the Fourier matrix
for clock-shift letters).  So vectorizing X is one gather of X, one
product with ``conj(W)^{(x)n}`` (taken as two products with its Kronecker
halves) and one gather with phases into letter order, and the kernel
takes the D strings of one shift group together.  Dense letter strings
are built only by ``superschur.oracle``.

:func:`operator_basis` builds the basis of each (d, n) once per process
and returns that one read-only object on every later call; the size guard
still runs on every call.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, SizeGuardError

DEFAULT_MAX_DIM = 4096
_MAX_DIM_ENV = "SCHUR_DFS_MAX_DIM"
# the one scratch slab the dense path keeps beside the (d*d)**n square array
# it builds: the superoperator kernel (superschur.channels) and the frame
# conjugation (superschur.blockdiag) run every larger temporary in chunks
# that fit it
_SCRATCH_BYTES = 512 * 1024
# chunk widths are a multiple of this many columns.  A BLAS product gives a
# column the same bits in a chunk as in the whole product only when it sits
# in the same micro-tile of columns (x86 OpenBLAS tiles by 4, 8 or 16), and
# a split at a multiple of the tile width keeps every tile whole
_CHUNK_ALIGN = 16


def _scratch_slab(least_bytes: int, dtype=np.float64) -> np.ndarray:
    """An uninitialised slab of _SCRATCH_BYTES, or of ``least_bytes`` when
    the caller needs more, as a flat array of ``dtype``."""
    return np.empty(max(_SCRATCH_BYTES, least_bytes) // np.dtype(dtype).itemsize, dtype=dtype)


def _column_chunks(columns: int, height: int, entries: int) -> list[slice]:
    """Slices tiling ``range(columns)`` into chunks of as many columns of
    ``height`` entries as fit in ``entries``, a multiple of _CHUNK_ALIGN and
    at least that (one chunk when all columns fit)."""
    width = max(_CHUNK_ALIGN, entries // height // _CHUNK_ALIGN * _CHUNK_ALIGN)
    return [slice(c, c + width) for c in range(0, columns, width)]


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


def _check_sizes(d: int, n: int) -> tuple[int, int]:
    """d and n as Python ints, read with ``operator.index`` so that a numpy
    integer cannot wrap around in a later power.  TypeError unless both
    are integers (a bool is not one), then DimensionMismatchError unless
    d >= 2 levels and n >= 1 sites."""
    try:
        if isinstance(d, bool) or isinstance(n, bool):
            raise TypeError
        d, n = operator.index(d), operator.index(n)
    except TypeError:
        raise TypeError(f"d and n must be integers (not bool), got d={d!r}, n={n!r}") from None
    if d < 2 or n < 1:
        raise DimensionMismatchError(f"need d >= 2 and n >= 1, got d={d}, n={n}")
    return d, n


def check_liouville_dim(d: int, n: int) -> int:
    """(d*d)**n, or TypeError for a d or n that is not an integer and
    DimensionMismatchError for d < 2 or n < 1 (:func:`_check_sizes`), or
    SizeGuardError when it exceeds the limit.
    The power exceeds every limit of fewer than n bits, so it is formed
    only when it is small enough to compare, and the message names it as
    d**(2n): the digits of the power, or of d*d, can run past Python's
    int-to-text limit, while d was itself read from text."""
    d, n = _check_sizes(d, n)
    q, limit = d * d, max_liouville_dim()
    if n > limit.bit_length() or q**n > limit:
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


def _strings(base: int, n: int) -> np.ndarray:
    """Every string of n digits below ``base``, one per row, in
    lexicographic order."""
    return np.asarray(list(itertools.product(range(base), repeat=n)), dtype=np.intp).reshape(-1, n)


# a field set from (d, n) by __post_init__
_derived = functools.partial(field, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class OperatorBasis:
    """Tensor-product letter basis of the operator space of n qudits, held
    as its monomial table.

    Element b is the tensor product of the single-site letters
    (:func:`single_site_letters`) indexed by the base-d*d digits of b, most
    significant first: the letter strings in lexicographic order, element 0
    the identity.  Letter a = ``c_a X^j Z^k`` has its entry in row r at
    column ``(r + g(a)) mod d`` with ``g(a) = -j mod d``, and that entry is
    ``lambda_a W[k, r]`` with ``lambda_a = c_a W[k, g(a)]`` (its entry in
    row 0) and W the clock powers.  So a string b with groups s and clock
    powers k has the entry ``Lambda_b W^{(x)n}[k, R]`` at ``(R, col_s(R))``,
    which :meth:`rows` reads off, W^{(x)n} being the conjugate of the
    Kronecker product of the halves ``w_outer`` and ``w_inner``, and
    ``<B_b, X> = conj(Lambda_b) / D * T[k, s]`` with
    ``T = conj(W)^{(x)n} G`` and ``G[R, s] = X[R, col_s(R)]``.

    The table is built on construction, after the size guard.  The instance
    is frozen and its arrays read-only, so a basis shared between callers
    cannot be edited, and two bases compare equal by (d, n).
    """

    d: int
    n: int
    col_s: np.ndarray = _derived()  # (D, D): col_s[s, R] = col_s(R)
    lam: np.ndarray = _derived()  # (dim,) Lambda_b
    gather: np.ndarray = _derived()  # (D*D,) flat index into X: G[R, s] = X[R, col_s(R)]
    w_outer: np.ndarray = _derived()  # conj(W)^{(x) ceil(n/2)}, float64 when W is real
    w_inner: np.ndarray = _derived()  # conj(W)^{(x) floor(n/2)}
    real: bool = _derived()  # W is real (d = 2): vectorize and the kernel take real products
    order: np.ndarray = _derived()  # (dim,) flat position k*D + s of each string in T
    phase: np.ndarray = _derived()  # (dim,) conj(Lambda_b) / D

    def __post_init__(self) -> None:
        d, n = self.d, self.n
        check_liouville_dim(d, n)
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
        table = dict(
            col_s=col_s, lam=lam, real=real,
            gather=(np.arange(D)[:, None] * D + col_s.T).reshape(-1),
            w_outer=reduce(np.kron, [Wc] * ((n + 1) // 2), one),
            w_inner=reduce(np.kron, [Wc] * (n // 2), one),
            order=(power[labels] @ place) * D + group[labels] @ place,
            phase=np.conj(lam) / D,
        )
        for name, value in table.items():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return (self.d * self.d) ** self.n

    def rows(self, strings: slice) -> tuple[np.ndarray, np.ndarray]:
        """(column index, value) of the nonzero in each row of the letter
        strings ``strings``, each of shape (c, d**n)."""
        k, s = np.divmod(self.order[strings], len(self.col_s))
        w = np.conj(np.kron(self.w_outer, self.w_inner))
        return self.col_s[s], self.lam[strings, None] * w[k]


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


def vectorize(matrix: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Coefficient vector of the d**n x d**n array ``matrix`` in the letter
    basis, read off by the basis's monomial table (real products with
    ``conj(W)^{(x)n}`` at d = 2).  A matrix of another shape raises
    DimensionMismatchError.
    """
    X = np.asarray(matrix, dtype=np.complex128)
    D = basis.d**basis.n
    if X.shape != (D, D):
        raise DimensionMismatchError(
            f"matrix shape {X.shape} does not match basis (d={basis.d}, n={basis.n}): "
            f"need ({D}, {D})"
        )
    D1, D2 = basis.w_outer.shape[0], basis.w_inner.shape[0]
    G = X.ravel().take(basis.gather)
    if basis.real:
        # a complex row is a row of (re, im) pairs, so the real W acts on
        # real and imaginary parts in one real product
        G = G.view(np.float64)
    T = basis.w_outer @ (basis.w_inner @ G.reshape(D1, D2, -1)).reshape(D1, -1)
    if basis.real:
        T = T.view(np.complex128)
    return T.ravel().take(basis.order) * basis.phase
