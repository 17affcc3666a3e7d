"""Operators on n qudits, orthonormal letter bases, and vectorization.

The inner product throughout is the normalized trace pairing
``<A, B> = Tr[A^dag B] / d**n``, under which the tensor-product letter
basis is orthonormal.  Vectorization writes an operator as its coefficient
vector in that basis, so superoperators become ordinary matrices acting on
letter-string coordinates.

Vectorization runs from a plan built once per basis.  Every letter is
monomial (one nonzero per row and column), and the d*d letters fall into d
groups that share one permutation of the columns; the phases of group g
are ``diag(lambda_g) W`` with one d x d matrix W for every group (the +-1
Hadamard matrix for the Paulis, the Fourier matrix for clock-shift
letters).  The coefficient of the string with groups s and rows k is then
``conj(Lambda) / d**n * sum_R conj(W^{(x)n})[k, R] X[R, col_s(R)]``: one
gather of X, one product with ``conj(W)^{(x)n}`` (taken as two products
with its Kronecker halves) and one gather with phases into letter order.
A letter set without this structure is refused; :func:`operator_basis`
always builds one that has it.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, InternalConsistencyError, SizeGuardError
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
    _plan: _VectorizePlan | None = field(default=None, repr=False)

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
    def vectorize_plan(self) -> _VectorizePlan:
        """The gather-and-transform plan :func:`vectorize` runs, built on
        first use from the letters as they are then."""
        if self._plan is None:
            self._plan = _VectorizePlan.build(self)
        return self._plan


def operator_basis(d: int, n: int) -> OperatorBasis:
    check_liouville_dim(d, n)
    letters = single_site_letters(d)
    labels = list(itertools.product(range(d * d), repeat=n))
    return OperatorBasis(d=d, n=n, letters=letters, labels=labels)


def _monomial_letters(basis: OperatorBasis) -> tuple[np.ndarray, np.ndarray]:
    """Column and value of the one nonzero in each row of every letter.

    Returns ``(cols, phases)`` of shape ``(d*d, d)``: letter a has the entry
    ``phases[a, r]`` at ``(r, cols[a, r])`` and zeros elsewhere.
    Vectorization and the superoperator kernel rest on this structure, so
    a letter with any other zero pattern is an error rather than a reason
    for a dense path.
    """
    d = basis.d
    cols = np.empty((len(basis.letters), d), dtype=np.intp)
    phases = np.empty((len(basis.letters), d), dtype=np.complex128)
    for a, letter in enumerate(basis.letters):
        rows, c = np.nonzero(letter)
        if not (np.array_equal(rows, np.arange(d)) and np.unique(c).size == d):
            raise InternalConsistencyError(
                f"letter {a} is not monomial (one nonzero per row and column); "
                "vectorize and the superoperator kernel need a monomial letter basis"
            )
        cols[a] = c
        phases[a] = letter[rows, c]
    return cols, phases


def _string_monomials(
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


# largest distance, as a share of max|W|, between a letter's phase row
# (scaled to start at 1) and the row of W it is matched to
_FACTOR_TOL = 1e-12


@dataclass(frozen=True)
class _VectorizePlan:
    """Index tables and transforms that :func:`vectorize` runs.

    Letter a has permutation group ``g(a)``, row ``k(a)`` of W and phase
    ``lambda_a``: its entry in row r is ``lambda_a W[k(a), r]`` at column
    ``perm_g(a)(r)``.  For a string b with groups s and rows k,
    ``<B_b, X> = conj(Lambda_b) / D * T[k, s]`` with
    ``T = conj(W)^{(x)n} G`` and ``G[R, s] = X[R, col_s(R)]``.
    """

    gather: np.ndarray  # (D*D,) flat index into X: G[R, s] = X[R, col_s(R)]
    w_outer: np.ndarray  # conj(W)^{(x) ceil(n/2)}, float64 when W is real
    w_inner: np.ndarray  # conj(W)^{(x) floor(n/2)}
    real: bool
    order: np.ndarray  # (dim,) flat position k*D + s of each label in T
    phase: np.ndarray  # (dim,) conj(Lambda_b) / D

    @classmethod
    def build(cls, basis: OperatorBasis) -> _VectorizePlan:
        d, n = basis.d, basis.n
        D = d**n
        cols, phases = _monomial_letters(basis)
        perms, group = np.unique(cols, axis=0, return_inverse=True)
        group = group.reshape(-1)
        sizes = np.bincount(group)
        if len(perms) != d or np.any(sizes != d):
            raise InternalConsistencyError(
                f"letters fall into column-permutation groups of sizes {sizes.tolist()}; "
                f"vectorize needs {d} groups of {d} letters"
            )
        rows = phases / phases[:, :1]
        W = rows[group == group[0]]
        dist = np.max(np.abs(rows[:, None, :] - W[None, :, :]), axis=2)
        row = np.argmin(dist, axis=1)
        worst = float(np.max(dist[np.arange(len(row)), row]))
        if not worst <= _FACTOR_TOL * np.max(np.abs(W)) or np.any(
            np.bincount(group * d + row, minlength=d * d) != 1
        ):
            raise InternalConsistencyError(
                "letter phases do not factor as diag(lambda_g) W with one W shared "
                f"by every permutation group (closest match off by {worst:.3e}); "
                "vectorize needs that structure"
            )
        Wc = np.conj(W)
        real = not np.any(Wc.imag)
        if real:
            Wc = np.ascontiguousarray(Wc.real)
        one = np.ones((1, 1), dtype=Wc.dtype)
        labels = np.asarray(basis.labels, dtype=np.intp).reshape(-1, n)
        place = d ** np.arange(n - 1, -1, -1)
        strings = np.asarray(list(itertools.product(range(d), repeat=n)), dtype=np.intp)
        col_s, _ = _string_monomials(perms, np.ones((d, d)), strings)
        return cls(
            gather=(np.arange(D)[:, None] * D + col_s.T).reshape(-1),
            w_outer=reduce(np.kron, [Wc] * ((n + 1) // 2), one),
            w_inner=reduce(np.kron, [Wc] * (n // 2), one),
            real=real,
            order=(row[labels] @ place) * D + group[labels] @ place,
            phase=np.conj(np.prod(phases[labels, 0], axis=1)) / D,
        )


def _check_basis_op(op: QuditOperator, basis: OperatorBasis) -> None:
    if (op.d, op.n) != (basis.d, basis.n):
        raise DimensionMismatchError(
            f"operator (d={op.d}, n={op.n}) does not match basis (d={basis.d}, n={basis.n})"
        )


def vectorize(op: QuditOperator, basis: OperatorBasis) -> np.ndarray:
    """Coefficient vector of ``op`` in the letter basis.

    Runs the basis's cached :class:`_VectorizePlan`: one gather of the
    matrix, two small products with the Kronecker halves of
    ``conj(W)^{(x)n}`` (real at d = 2) and one gather with phases into
    letter order.  A letter set that is not monomial, or whose groups do
    not share one phase matrix W, raises InternalConsistencyError.
    """
    _check_basis_op(op, basis)
    p = basis.vectorize_plan
    D1, D2 = p.w_outer.shape[0], p.w_inner.shape[0]
    G = op.matrix.ravel().take(p.gather)
    if p.real:
        # a complex row is a row of (re, im) pairs, so the real W acts on
        # real and imaginary parts in one real product
        G = G.view(np.float64)
    T = p.w_outer @ (p.w_inner @ G.reshape(D1, D2, -1)).reshape(D1, -1)
    if p.real:
        T = T.view(np.complex128)
    return T.ravel().take(p.order) * p.phase


def devectorize(v: np.ndarray, basis: OperatorBasis) -> QuditOperator:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (basis.dim,):
        raise DimensionMismatchError(f"vector length {v.shape} != basis dimension {basis.dim}")
    d, n = basis.d, basis.n
    q = d * d
    # N[a, s] = letter_a[s]; the coefficients are <letter_a, op>, so by
    # letter orthonormality contracting every site with N rebuilds op
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
