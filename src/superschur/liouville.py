"""Operators on n qudits, orthonormal letter bases, and vectorization.

The inner product throughout is the normalized trace pairing
``<A, B> = Tr[A^dag B] / d**n``, under which the tensor-product letter
basis is orthonormal.  Vectorization writes an operator as its coefficient
vector in that basis, so superoperators become ordinary matrices acting on
letter-string coordinates.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, SizeGuardError
from .permutations import check_permutation, string_index_map

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
    dim = (d * d) ** n
    limit = max_liouville_dim()
    if dim > limit:
        raise SizeGuardError(
            f"Liouville dimension {dim} for d={d}, n={n} exceeds the limit "
            f"{limit}; raise {_MAX_DIM_ENV} to proceed"
        )
    return dim


@dataclass(frozen=True)
class QuditOperator:
    """A dense operator on n qudits of local dimension d."""

    d: int
    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2 or self.n < 1:
            raise DimensionMismatchError(f"need d >= 2 and n >= 1, got d={self.d}, n={self.n}")
        m = np.asarray(self.matrix, dtype=np.complex128)
        dim = self.d**self.n
        if m.shape != (dim, dim):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match d**n = {dim} for d={self.d}, n={self.n}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.d**self.n


def _check_same_space(a, b) -> None:
    if (a.d, a.n) != (b.d, b.n):
        raise DimensionMismatchError(
            f"operands live on different spaces: d={a.d}, n={a.n} vs d={b.d}, n={b.n}"
        )


def hs_inner(a: QuditOperator, b: QuditOperator) -> complex:
    """Normalized trace inner product Tr[a^dag b] / d**n."""
    _check_same_space(a, b)
    return complex(np.vdot(a.matrix, b.matrix) / a.d**a.n)


def hs_norm(a: QuditOperator) -> float:
    return float(np.sqrt(max(hs_inner(a, a).real, 0.0)))


def pauli_letters() -> list[np.ndarray]:
    """The four single-qubit letters I, X, Y, Z (indices 0..3)."""
    return [
        np.eye(2, dtype=np.complex128),
        np.array([[0, 1], [1, 0]], dtype=np.complex128),
        np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        np.array([[1, 0], [0, -1]], dtype=np.complex128),
    ]


def weyl_letters(d: int) -> list[np.ndarray]:
    """Clock-shift letters X^j Z^k for one qudit, index a = j*d + k.

    Unitary, orthogonal under the normalized trace pairing, and letter 0
    is the identity.
    """
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=np.complex128)
    for m in range(d):
        shift[(m + 1) % d, m] = 1.0
    clock = np.diag(omega ** np.arange(d))
    letters = []
    for j in range(d):
        for k in range(d):
            letters.append(np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k))
    return letters


def single_site_letters(d: int) -> list[np.ndarray]:
    """Orthonormal letter set for one site: Pauli for d=2, clock-shift above."""
    if d < 2:
        raise DimensionMismatchError(f"local dimension must be >= 2, got {d}")
    return pauli_letters() if d == 2 else weyl_letters(d)


@dataclass
class OperatorBasis:
    """Tensor-product letter basis of the operator space of n qudits.

    Element a is the tensor product of single-site letters indexed by the
    digits of the lexicographically ordered letter string ``labels[a]``;
    element 0 is the identity.
    """

    d: int
    n: int
    letters: list[np.ndarray]
    labels: list[tuple[int, ...]]
    _elements: list = field(default_factory=list, repr=False)
    _dual: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return (self.d * self.d) ** self.n

    def element_matrix(self, a: int) -> np.ndarray:
        return reduce(np.kron, (self.letters[i] for i in self.labels[a]))

    @property
    def elements(self) -> list[QuditOperator]:
        if not self._elements:
            self._elements = [
                QuditOperator(self.d, self.n, self.element_matrix(a)) for a in range(self.dim)
            ]
        return self._elements

    @property
    def dual_matrix(self) -> np.ndarray:
        """M with M[a, s] = conj(letter_a[s]) / d; contracting every site
        of an operator with M yields its coefficient vector."""
        if self._dual is None:
            q = self.d * self.d
            M = np.empty((q, q), dtype=np.complex128)
            for a, letter in enumerate(self.letters):
                M[a] = np.conj(letter.reshape(-1)) / self.d
            self._dual = M
        return self._dual


def operator_basis(d: int, n: int) -> OperatorBasis:
    check_liouville_dim(d, n)
    letters = single_site_letters(d)
    labels = list(itertools.product(range(d * d), repeat=n))
    return OperatorBasis(d=d, n=n, letters=letters, labels=labels)


def _check_basis_op(op: QuditOperator, basis: OperatorBasis) -> None:
    if (op.d, op.n) != (basis.d, basis.n):
        raise DimensionMismatchError(
            f"operator (d={op.d}, n={op.n}) does not match basis (d={basis.d}, n={basis.n})"
        )


def vectorize(op: QuditOperator, basis: OperatorBasis) -> np.ndarray:
    """Coefficient vector of ``op`` in the letter basis, site by site."""
    _check_basis_op(op, basis)
    d, n = basis.d, basis.n
    q = d * d
    t = op.matrix.reshape((d,) * (2 * n))
    # (i_1..i_n, j_1..j_n) -> (i_1, j_1, ..., i_n, j_n): site k's index is i_k j_k
    t = np.transpose(t, axes=[ax for k in range(n) for ax in (k, n + k)])
    M = basis.dual_matrix
    for _ in range(n):
        # contract the leading site; its letter index moves to the back
        t = (M @ t.reshape(q, -1)).T
    return t.reshape(-1)


def devectorize(v: np.ndarray, basis: OperatorBasis) -> QuditOperator:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (basis.dim,):
        raise DimensionMismatchError(f"vector length {v.shape} != basis dimension {basis.dim}")
    d, n = basis.d, basis.n
    q = d * d
    # N[a, s] = letter_a[s]; inverse of dual_matrix contraction since
    # dual_matrix @ N.T is the identity (letter orthonormality).
    N = np.stack([letter.reshape(-1) for letter in basis.letters])
    t = v.reshape((q,) * n)
    for k in range(n):
        t = np.moveaxis(np.tensordot(N, t, axes=(0, k)), 0, k)
    t = t.reshape((d, d) * n)
    t = np.transpose(t, axes=[2 * k for k in range(n)] + [2 * k + 1 for k in range(n)])
    return QuditOperator(d, n, t.reshape(d**n, d**n))


@dataclass(frozen=True)
class PermutationRep:
    """A site permutation as a matrix on states and on letter strings."""

    d: int
    n: int
    pi: tuple[int, ...]
    hilbert_matrix: np.ndarray
    liouville_matrix: np.ndarray


def hilbert_permutation_matrix(pi: tuple[int, ...], d: int, n: int) -> np.ndarray:
    """Matrix of the permutation on the n-qudit state space."""
    pi = check_permutation(pi, n)
    dim = d**n
    P = np.zeros((dim, dim))
    P[string_index_map(pi, d, n), np.arange(dim)] = 1.0
    return P


def perm_rep(pi: tuple[int, ...], d: int, n: int, basis: OperatorBasis) -> PermutationRep:
    """Permutation matrices on states and on the letter basis.

    On letter strings the action is the same digit shuffle as on state
    strings because the basis elements are site-wise tensor products.
    """
    if (d, n) != (basis.d, basis.n):
        raise DimensionMismatchError(
            f"(d={d}, n={n}) does not match basis (d={basis.d}, n={basis.n})"
        )
    pi = check_permutation(pi, n)
    H = hilbert_permutation_matrix(pi, d, n)
    dim = basis.dim
    L = np.zeros((dim, dim))
    L[string_index_map(pi, d * d, n), np.arange(dim)] = 1.0
    return PermutationRep(d=d, n=n, pi=pi, hilbert_matrix=H, liouville_matrix=L)
