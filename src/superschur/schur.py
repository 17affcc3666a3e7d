"""Adapted bases for the permutation action on letter strings.

The symmetric group acts on length-n letter strings by shuffling sites.
This module builds, per partition shape, an orthogonal basis splitting
that action into irreducible blocks.  The group-algebra matrix unit seeded
on a reference tableau, restricted to each letter-content class, projects
onto the highest-multiplicity columns.  Young's orthogonal form then
generates the columns of every other tableau from a neighbouring one
through a single adjacent transposition, so no stage sums over the group
per tableau.  In the resulting frame every site permutation is block
diagonal with the sector pattern D x I (irrep matrix times identity on the
multiplicity space).  Every column lives on one letter-content class,
which lets unitarity be checked one class at a time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import (
    Partition,
    letter_strings_by_weight,
    partitions,
    standard_tableaux,
    syt_dimension,
    weight_vectors,
    weyl_dimension,
)
from .errors import InternalConsistencyError, SizeGuardError
from .liouville import check_liouville_dim, max_liouville_dim
from .permutations import (
    adjacent_transposition,
    all_permutations,
    check_permutation,
    compose,
    identity,
    string_index_map,
)

UNITARITY_TOL = 1e-10
RANK_TOL = 1e-8
SIGN_TOL = 1e-12


def young_orthogonal_generator(shape: Partition, i: int) -> np.ndarray:
    """Orthogonal matrix of the transposition (i, i+1), 1 <= i <= n-1.

    Rows and columns follow the ``standard_tableaux`` order.  The diagonal
    entry at tableau T is 1/r with r the axial distance from i to i+1 in T
    (+1 same row, -1 same column); when exchanging i and i+1 keeps T
    standard, the two tableaux couple with off-diagonal sqrt(1 - 1/r^2).
    """
    n = shape.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index must satisfy 1 <= i <= {n - 1}, got {i}")
    tabs = standard_tableaux(shape)
    index = {t: k for k, t in enumerate(tabs)}
    M = np.zeros((len(tabs), len(tabs)))
    for k, t in enumerate(tabs):
        r = t.axial_distance(i)
        M[k, k] = 1.0 / r
        swapped = t.swap_adjacent(i)
        if swapped is not None:
            M[index[swapped], k] = math.sqrt(1.0 - 1.0 / r**2)
    return M


@dataclass(frozen=True)
class IrrepMatrices:
    """All n! orthogonal irrep matrices for one shape, keyed by one-line
    permutation tuple."""

    shape: Partition
    n: int
    dim: int
    matrices: dict

    def matrix(self, pi: tuple[int, ...]) -> np.ndarray:
        return self.matrices[check_permutation(pi, self.n)]

    def character(self, pi: tuple[int, ...]) -> float:
        return float(np.trace(self.matrix(pi)))


def _check_factorial_enumeration(n: int) -> None:
    # Full group enumeration scales like the smallest Liouville space
    # (d=2), so reuse the same size guard.
    if 4**n > max_liouville_dim():
        raise SizeGuardError(
            f"full enumeration of S_{n} refused: 4**{n} exceeds the size limit "
            f"{max_liouville_dim()}"
        )


def irrep_matrices(shape: Partition, n: int) -> IrrepMatrices:
    """Young's orthogonal representation for every group element.

    Built by breadth-first products of the adjacent-transposition
    generator matrices, so the result is a genuine homomorphism up to
    floating point roundoff.
    """
    if shape.n != n:
        raise ValueError(f"shape {shape} is not a partition of {n}")
    _check_factorial_enumeration(n)
    tabs = standard_tableaux(shape)
    dim = len(tabs)
    gens = [
        (adjacent_transposition(n, k), young_orthogonal_generator(shape, k + 1))
        for k in range(n - 1)
    ]
    mats: dict[tuple[int, ...], np.ndarray] = {identity(n): np.eye(dim)}
    queue: deque[tuple[int, ...]] = deque([identity(n)])
    while queue:
        p = queue.popleft()
        for s, Ds in gens:
            ps = compose(p, s)
            if ps not in mats:
                mats[ps] = mats[p] @ Ds
                queue.append(ps)
    if len(mats) != math.factorial(n):
        raise InternalConsistencyError(
            f"generated {len(mats)} matrices, expected {math.factorial(n)}"
        )
    return IrrepMatrices(shape=shape, n=n, dim=dim, matrices=mats)


def matrix_unit(shape: Partition, y: int, y0: int, d: int, n: int) -> np.ndarray:
    """Dense group-algebra matrix unit on letter strings.

    E_{y,y0} = (dim / n!) * sum_pi D(pi)[y, y0] * S_pi, with S_pi the
    string shuffle.  These satisfy E_{ij} E_{kl} = delta_{jk} E_{il}; the
    diagonal units are orthogonal projections.  The matrix is real.
    """
    full = check_liouville_dim(d, n)
    rep = irrep_matrices(shape, n)
    if not (0 <= y < rep.dim and 0 <= y0 < rep.dim):
        raise ValueError(f"tableau indices out of range for {shape}: {y}, {y0}")
    scale = rep.dim / math.factorial(n)
    M = np.zeros((full, full))
    cols = np.arange(full)
    for p in all_permutations(n):
        c = rep.matrices[p][y, y0] * scale
        if c != 0.0:
            M[string_index_map(p, d * d, n), cols] += c
    return M


@dataclass(frozen=True)
class ColumnLabel:
    """Label of one basis column: sector shape, tableau index within the
    sector, letter content, and index within that content class."""

    shape: Partition
    tableau_index: int
    weight: tuple[int, ...]
    weight_index: int


@dataclass
class SuperSchurBasis:
    """Orthonormal letter-string basis adapted to site permutations.

    Columns are grouped by shape (largest first), then tableau index, then
    letter content in lexicographic order.  In this frame every site
    permutation acts as a direct sum over shapes of D(pi) x I.
    """

    d: int
    n: int
    unitary: np.ndarray
    labels: list[ColumnLabel]
    _sectors: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        start = 0
        pos = 0
        while pos < len(self.labels):
            shape = self.labels[pos].shape
            start = pos
            while pos < len(self.labels) and self.labels[pos].shape == shape:
                pos += 1
            count = pos - start
            syt = max(lab.tableau_index for lab in self.labels[start:pos]) + 1
            if count % syt:
                raise InternalConsistencyError(f"ragged sector for shape {shape}")
            self._sectors[shape] = (start, syt, count // syt)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    @property
    def shapes(self) -> list[Partition]:
        return list(self._sectors)

    def multiplicity(self, shape: Partition) -> int:
        return self._sectors[shape][2]

    def syt_count(self, shape: Partition) -> int:
        return self._sectors[shape][1]

    def sector_slice(self, shape: Partition) -> slice:
        start, syt, mult = self._sectors[shape]
        return slice(start, start + syt * mult)

    def tableau_slice(self, shape: Partition, y: int) -> slice:
        start, syt, mult = self._sectors[shape]
        if not 0 <= y < syt:
            raise ValueError(f"tableau index {y} out of range for {shape}")
        return slice(start + y * mult, start + (y + 1) * mult)

    def unitarity_deviation(self) -> float:
        """max |U^dagger U - I|, one real Gram matrix per letter-content class.

        Columns labelled with different contents are orthogonal exactly when
        each column is zero outside the rows of its own class, so the Gram
        matrix is block diagonal and the classes can be checked one by one.
        That support, and a zero imaginary part, are checked exactly first;
        a basis that fails either (for example a hand-edited basis file) is
        checked with the dense product instead.
        """
        classes = self._class_blocks()
        if classes is None:
            G = self.unitary.conj().T @ self.unitary
            return float(np.max(np.abs(G - np.eye(G.shape[0]))))
        # np.max, unlike the builtin max, lets a NaN through to the caller
        return float(np.max([np.max(np.abs(B.T @ B - np.eye(len(B)))) for _, _, B in classes]))

    def _class_blocks(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None:
        """Per letter-content class: its row indices, the indices of the
        columns labelled with it, and the real square block U[rows, cols].

        Returns None unless U is block diagonal after sorting by class,
        checked exactly: the labels match the columns, U has no imaginary
        part, every column is zero outside the rows of its class, the class
        rows tile 0..dim-1 and every block is square.
        """
        U = self.unitary
        if len(self.labels) != U.shape[1]:
            return None
        if np.iscomplexobj(U):
            if np.count_nonzero(U.imag):
                return None
            U = U.real
        rows = letter_strings_by_weight(self.d * self.d, self.n)
        cols: dict[tuple[int, ...], list[int]] = {}
        for j, lab in enumerate(self.labels):
            cols.setdefault(lab.weight, []).append(j)
        # the classes partition all q**n strings, so with every class labelled
        # and q**n rows, the class rows tile 0..dim-1
        if cols.keys() != rows.keys() or U.shape[0] != (self.d * self.d) ** self.n:
            return None
        if any(len(rows[w]) != len(js) for w, js in cols.items()):
            return None
        classes = [
            (np.asarray(rows[w]), np.asarray(js), U[np.ix_(rows[w], js)])
            for w, js in cols.items()
        ]
        if sum(np.count_nonzero(B) for _, _, B in classes) != np.count_nonzero(U):
            return None
        return classes


def _reference_blocks(q: int, n: int, shapes: list[Partition]) -> dict:
    """Orthonormal reference-tableau columns per shape and content class.

    The matrix unit E_00 = (dim / n!) sum_pi D(pi)[0, 0] S_pi restricted
    to one letter-content class is accumulated by one bincount over the
    images of the class strings under every permutation.  The index array
    is built once per class and shared by all shapes; its terms run
    permutation-major, the order of a term-by-term sum over the group.
    This matters because E_00 is a degenerate projector, so its singular
    vectors move with the last bit of the restricted matrix.
    """
    perms = all_permutations(n)
    coeffs = {}
    for shape in shapes:
        rep = irrep_matrices(shape, n)
        scale = rep.dim / len(perms)
        coeffs[shape] = np.array([rep.matrices[p][0, 0] for p in perms]) * scale
    # the letter at site j moves to site p[j], where its place value is
    # q**(n-1-p[j]): place @ digits gives every permuted string index at once
    place = q ** (n - 1 - np.array(perms))
    kostka = {s: {w.counts: k for w, k in weight_vectors(s, q)} for s in shapes}
    classes = letter_strings_by_weight(q, n)
    local = np.empty(q**n, dtype=np.intp)
    out: dict[Partition, list] = {s: [] for s in shapes}
    # classes ordered by their lexicographically first member string, so
    # the all-zeros (identity) class always comes first
    for content in sorted(classes, key=lambda w: classes[w][0]):
        wanted = [s for s in shapes if kostka[s].get(content, 0)]
        if not wanted:
            continue
        cls = np.asarray(classes[content])
        size = len(cls)
        local[cls] = np.arange(size)
        images = place @ np.array(np.unravel_index(cls, (q,) * n))
        # entry (row of pi(c), c) of the restricted unit, for every pi and c
        flat = (local[images] * size + np.arange(size)).ravel()
        for shape in wanted:
            expected = kostka[shape][content]
            A = np.bincount(flat, weights=np.repeat(coeffs[shape], size), minlength=size * size)
            u, s, _ = np.linalg.svd(A.reshape(size, size))
            rank = int(np.sum(s > RANK_TOL))
            if rank != expected:
                raise InternalConsistencyError(
                    f"shape {shape}, content {content}: projector rank {rank} "
                    f"!= multiplicity {expected}"
                )
            block = u[:, :rank]
            for j in range(rank):
                lead = block[np.argmax(np.abs(block[:, j]) > SIGN_TOL), j]
                if lead < 0:
                    block[:, j] = -block[:, j]
            out[shape].append((content, cls, block))
    return out


def _twin_columns(shape: Partition, V0: np.ndarray, swaps: dict) -> list[np.ndarray]:
    """Columns of every tableau of ``shape``, in ``standard_tableaux`` order,
    from the reference columns V0 by Young's orthogonal form.

    For T' = T with i and i+1 exchanged and r the axial distance from i to
    i+1 in T, S_i V_T = V_T / r + sqrt(1 - 1/r^2) V_T', so
    V_T' = (S_i V_T - V_T / r) / sqrt(1 - 1/r^2), S_i being the row gather
    ``swaps[i]``.  The walk goes outward from the reference tableau.
    """
    tabs = standard_tableaux(shape)
    index = {t: k for k, t in enumerate(tabs)}
    sector: list[np.ndarray | None] = [V0] + [None] * (len(tabs) - 1)
    queue = deque([0])
    while queue:
        y = queue.popleft()
        for i, gather in swaps.items():
            twin = tabs[y].swap_adjacent(i)
            if twin is None or sector[index[twin]] is not None:
                continue
            r = tabs[y].axial_distance(i)
            V = sector[y]
            sector[index[twin]] = (V[gather] - V / r) / math.sqrt(1.0 - 1.0 / r**2)
            queue.append(index[twin])
    if any(V is None for V in sector):
        raise InternalConsistencyError(f"shape {shape}: tableau walk left tableaux unfilled")
    return sector


def super_schur_basis(d: int, n: int) -> SuperSchurBasis:
    """Build the permutation-adapted letter-string basis for n qudits.

    Per shape, the diagonal matrix unit seeded on the reference tableau is
    restricted to each letter-content class and its range orthonormalized
    by singular value decomposition; the class ranks must reproduce the
    semistandard multiplicities.  Reference-tableau columns get a fixed
    sign (first sizable component positive).  The remaining tableaux are
    generated by the Young orthogonal-form recursion over adjacent
    transpositions, one row gather per tableau, which reproduces the
    matrix-unit intertwiners without summing over the group.  Unitarity is
    checked one letter-content class at a time.
    """
    q = d * d
    dim = check_liouville_dim(d, n)
    shapes = partitions(n, min(n, q))
    reference = _reference_blocks(q, n, shapes)
    swaps = {i: string_index_map(adjacent_transposition(n, i - 1), q, n) for i in range(1, n)}
    width = sum(syt_dimension(s) * weyl_dimension(s, q) for s in shapes)
    U = np.zeros((dim, width))
    labels: list[ColumnLabel] = []
    for shape in shapes:
        m_lam = weyl_dimension(shape, q)
        V0 = np.zeros((dim, m_lam))
        col_meta: list[tuple[tuple[int, ...], int]] = []
        for content, cls, block in reference.pop(shape):
            rank = block.shape[1]
            V0[cls, len(col_meta) : len(col_meta) + rank] = block
            col_meta.extend((content, j) for j in range(rank))
        if len(col_meta) != m_lam:
            raise InternalConsistencyError(
                f"shape {shape}: found {len(col_meta)} columns, expected {m_lam}"
            )
        for y, Vy in enumerate(_twin_columns(shape, V0, swaps)):
            U[:, len(labels) : len(labels) + m_lam] = Vy
            labels.extend(ColumnLabel(shape, y, content, j) for content, j in col_meta)
    basis = SuperSchurBasis(d=d, n=n, unitary=U, labels=labels)
    dev = basis.unitarity_deviation()
    if not dev <= UNITARITY_TOL:
        raise InternalConsistencyError(f"basis not unitary: deviation {dev:.3e}")
    return basis


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
    dim = basis.dim
    t = string_index_map(pi, basis.d * basis.d, basis.n)
    S = np.zeros((dim, dim))
    S[t, np.arange(dim)] = 1.0
    A = basis.unitary.conj().T @ S @ basis.unitary
    predicted = np.zeros_like(A)
    irrep_blocks = {}
    mults = {}
    for shape in basis.shapes:
        D = irrep_matrices(shape, basis.n).matrices[pi]
        m = basis.multiplicity(shape)
        sl = basis.sector_slice(shape)
        predicted[sl, sl] = np.kron(D, np.eye(m))
        irrep_blocks[shape] = D
        mults[shape] = m
    leakage = float(np.max(np.abs(A - predicted)))
    return PermutationBlockStructure(
        pi=pi, matrix=A, irrep_blocks=irrep_blocks, multiplicities=mults, leakage=leakage
    )
