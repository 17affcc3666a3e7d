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
multiplicity space).  Every column lives on one letter-content class, so
the basis is stored as one real square block per class, and unitarity is
checked one class at a time.

:func:`super_schur_basis` builds the basis of each (d, n) once per process
and returns that one read-only object on every later call: the basis
depends on the symmetry alone, never on a channel.  The size guard still
runs on every call.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType

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
from .errors import BasisLayoutError, InternalConsistencyError, SizeGuardError
from .liouville import _read_only, check_liouville_dim, max_liouville_dim
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


@dataclass(frozen=True)
class ColumnLabel:
    """Label of one basis column: sector shape, tableau index within the
    sector, letter content, and index within that content class."""

    shape: Partition
    tableau_index: int
    weight: tuple[int, ...]
    weight_index: int


def _check_label_layout(d: int, n: int, labels: list[ColumnLabel]) -> None:
    """Raise :class:`BasisLayoutError` at the first label that breaks the
    layout of a built basis: its shape must be a partition of n with at
    most d*d rows, its tableau index lie in ``[0, syt_dimension(shape))``,
    the labels of each shape be contiguous, no tableau index label more
    than ``weyl_dimension(shape, d*d)`` columns, and ``weight_index`` count
    up from 0 within each (shape, tableau index, weight).  With one label
    per column in all, the bound makes every tableau index of a shape
    label the same number of columns."""
    q = d * d
    finished: set[Partition] = set()
    columns: dict[tuple, int] = {}  # per (shape, Y)
    next_index: dict[tuple, int] = {}  # per (shape, Y, weight)
    current = None
    for j, lab in enumerate(labels):
        shape, y = lab.shape, lab.tableau_index
        if shape != current:
            if shape.n != n or shape.rows > q:
                raise BasisLayoutError(
                    f"lambda={shape} is not a partition of n={n} with at most {q} rows",
                    column=j,
                )
            if shape in finished:
                raise BasisLayoutError(f"the columns of shape {shape} are not contiguous", column=j)
            if current is not None:
                finished.add(current)
            current = shape
            syt, mult = syt_dimension(shape), weyl_dimension(shape, q)
        if not 0 <= y < syt:
            raise BasisLayoutError(f"Y={y} outside [0, {syt}) for shape {shape}", column=j)
        key = (shape, y)
        columns[key] = columns.get(key, 0) + 1
        if columns[key] > mult:
            raise BasisLayoutError(
                f"shape {shape} labels more than {mult} columns with Y={y}; every "
                f"tableau index labels weyl_dimension(shape, {q}) = {mult}",
                column=j,
            )
        key = (shape, y, lab.weight)
        expected = next_index.get(key, 0)
        if lab.weight_index != expected:
            raise BasisLayoutError(
                f"w_index={lab.weight_index} where {expected} comes next for shape "
                f"{shape}, Y={y} and weight {','.join(map(str, lab.weight))}",
                column=j,
            )
        next_index[key] = expected + 1


@dataclass(frozen=True)
class SuperSchurBasis:
    """Orthonormal letter-string basis adapted to site permutations.

    Columns are grouped by shape (largest first), then tableau index, then
    letter content in lexicographic order.  In this frame every site
    permutation acts as a direct sum over shapes of D(pi) x I.

    Every column lives on the strings of its label's letter content, so
    ``classes`` stores, per content class in order of first appearance in
    ``labels``, its ascending rows, the ascending columns labelled with it
    and the real square block U[rows, cols].  The instance is frozen, with
    ``classes`` and ``labels`` kept as tuples and the sector table as a
    read-only mapping, so a basis shared between callers cannot be edited.
    """

    d: int
    n: int
    classes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    labels: tuple[ColumnLabel, ...]
    _sectors: MappingProxyType = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "labels", tuple(self.labels))
        sectors, start = {}, 0
        for shape, group in itertools.groupby(self.labels, key=lambda lab: lab.shape):
            tableaux = [lab.tableau_index for lab in group]
            syt = max(tableaux) + 1
            if len(tableaux) % syt:
                raise InternalConsistencyError(f"ragged sector for shape {shape}")
            sectors[shape] = (start, syt, len(tableaux) // syt)
            start += len(tableaux)
        object.__setattr__(self, "_sectors", MappingProxyType(sectors))

    @classmethod
    def from_unitary(
        cls, d: int, n: int, unitary: np.ndarray, labels: list[ColumnLabel]
    ) -> SuperSchurBasis:
        """The basis whose dense matrix is ``unitary``, split into class blocks.

        Raises :class:`BasisLayoutError` unless, checked exactly, the matrix
        is real and square with one label per column, every class labels as
        many columns as it has rows, no nonzero entry leaves the rows of
        its column's class, and the labels keep the layout
        :func:`super_schur_basis` builds (see :func:`_check_label_layout`)."""
        dim = (d * d) ** n
        if unitary.shape != (dim, dim) or len(labels) != dim:
            raise BasisLayoutError(f"need {dim} labels and {dim} x {dim} amplitudes")
        if np.iscomplexobj(unitary) and np.any(unitary.imag):
            raise BasisLayoutError("nonzero imaginary amplitude")
        rows = letter_strings_by_weight(d * d, n)
        cols: dict[tuple[int, ...], list[int]] = {}
        for j, lab in enumerate(labels):
            cols.setdefault(lab.weight, []).append(j)
        outside = unitary != 0  # NaN included
        # with dim labels in all, square blocks leave no class unlabelled
        for w, js in cols.items():
            size = len(rows.get(w, ()))
            if len(js) != size:
                message = f"content {w} has {size} letter strings but labels {len(js)} columns"
                raise BasisLayoutError("classes do not tile the space: " + message, column=js[0])
            outside[np.ix_(rows[w], js)] = False
        if outside.any():
            row, col = (int(x) for x in np.argwhere(outside)[0])
            message = f"amplitude at row {row} lies outside its content class {labels[col].weight}"
            raise BasisLayoutError(f"column {col}: {message}", row, col)
        _check_label_layout(d, n, labels)
        classes = [
            (np.asarray(rows[w]), np.asarray(js), unitary.real[np.ix_(rows[w], js)])
            for w, js in cols.items()
        ]
        return cls(d=d, n=n, classes=classes, labels=labels)

    @property
    def dim(self) -> int:
        return (self.d * self.d) ** self.n

    @property
    def unitary(self) -> np.ndarray:
        """The dense dim x dim basis matrix, assembled anew on every read."""
        U = np.zeros((self.dim, self.dim))
        for rows, cols, B in self.classes:
            U[np.ix_(rows, cols)] = B
        return U

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
        """max |U^T U - I|, one Gram matrix per letter-content class (columns
        of different classes have disjoint supports)."""
        # np.max, unlike the builtin max, lets a NaN through to the caller
        return float(np.max([np.max(np.abs(B.T @ B - np.eye(len(B)))) for _, _, B in self.classes]))


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

    Built once per (d, n) per process: every later call returns the same
    object, whose class rows, columns and blocks are read-only arrays
    (``unitary`` still assembles a fresh array on every read).  The size
    guard (SCHUR_DFS_MAX_DIM) is checked on every call, cache hits
    included, and a build that raises is not kept.
    """
    check_liouville_dim(d, n)
    return _super_schur_basis(d, n)


@functools.cache
def _super_schur_basis(d: int, n: int) -> SuperSchurBasis:
    q = d * d
    dim = q**n
    shapes = partitions(n, min(n, q))
    reference = _reference_blocks(q, n, shapes)
    swaps = {i: string_index_map(adjacent_transposition(n, i - 1), q, n) for i in range(1, n)}
    # per content class, in order of first appearance: its rows, its column
    # indices and the matching column slices of the twin blocks
    filled: dict[tuple[int, ...], tuple[np.ndarray, list[int], list[np.ndarray]]] = {}
    labels: list[ColumnLabel] = []
    for shape in shapes:
        m_lam = weyl_dimension(shape, q)
        V0 = np.zeros((dim, m_lam))
        spans = []  # (content, class rows, first column in V0, column count)
        start = 0
        for content, cls, block in reference.pop(shape):
            V0[cls, start : start + block.shape[1]] = block
            spans.append((content, cls, start, block.shape[1]))
            start += block.shape[1]
        if start != m_lam:
            raise InternalConsistencyError(
                f"shape {shape}: found {start} columns, expected {m_lam}"
            )
        for y, Vy in enumerate(_twin_columns(shape, V0, swaps)):
            for content, cls, a, rank in spans:
                _, cols, parts = filled.setdefault(content, (cls, [], []))
                cols.extend(range(len(labels), len(labels) + rank))
                parts.append(Vy[cls, a : a + rank])
                labels.extend(ColumnLabel(shape, y, content, j) for j in range(rank))
    classes = [
        _read_only(cls, np.asarray(cols), np.hstack(parts)) for cls, cols, parts in filled.values()
    ]
    basis = SuperSchurBasis(d=d, n=n, classes=classes, labels=labels)
    dev = basis.unitarity_deviation()
    if not dev <= UNITARITY_TOL:
        raise InternalConsistencyError(f"basis not unitary: deviation {dev:.3e}")
    return basis
