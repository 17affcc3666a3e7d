"""Adapted bases for the permutation action on letter strings.

The symmetric group acts on length-n letter strings by shuffling sites.
This module builds, per partition shape, an orthogonal basis splitting
that action into irreducible blocks.  Site shuffles keep the letter
content of a string, so the basis is built one letter-content class at a
time.  Within a class, the columns of a shape's reference tableau are the
joint eigenvectors of the Jucys-Murphy elements X_k = sum_{j<k} (j k),
with the contents of the reference tableau as eigenvalues (Okounkov and
Vershik); each X_k acts as a sum of transposition gathers on the class,
and its spectrum is integer.  Young's orthogonal form then generates the
columns of every other tableau from a neighbouring one through a single
adjacent transposition, so no stage enumerates the group.  A tableau is
its row word (see :func:`superschur.combinatorics.standard_tableaux`),
and one table, :func:`_adjacent_swaps`, gives for each tableau and each
adjacent transposition the axial distance and the exchanged tableau; the
walk and :func:`young_orthogonal_generator` both read it.  In the
resulting frame every site permutation is block diagonal with the sector
pattern D x I (irrep matrix times identity on the multiplicity space).
The basis is stored as one real square block per class, and unitarity is
checked one class at a time.

The column layout follows from Schur-Weyl duality alone: a column is a
shape, a standard tableau and a multiplicity label (a letter content and
an index within it, counted by a Kostka number).  One cached table per
(d, n) holds that layout: each content class with its rows (strings) and
its frame columns, the Kostka numbers and the sector table (one
:class:`Sector` per shape, whence every column slice of a shape).  The
builder and every basis read it, as ``.labels`` and ``.sectors``.

:func:`super_schur_basis` builds the basis of each (d, n) once per process
and returns that one read-only object on every later call: the basis
depends on the symmetry alone, never on a channel.  The size guard still
runs on every call.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .combinatorics import (
    Partition,
    kostka_numbers,
    letter_strings_by_weight,
    partitions,
    standard_tableaux,
    syt_dimension,
    weyl_dimension,
)
from .errors import DimensionMismatchError, InternalConsistencyError, SizeGuardError
from .liouville import _read_only, check_liouville_dim, max_liouville_dim
from .permutations import (
    adjacent_transposition,
    compose,
    identity,
    string_index_map,
)

UNITARITY_TOL = 1e-10
SIGN_TOL = 1e-12


def _adjacent_swaps(shape: Partition) -> list[tuple[tuple[int, int | None], ...]]:
    """How each adjacent transposition acts on the tableaux of ``shape``.

    Entry ``[y][i - 1]``, for the y-th word of :func:`standard_tableaux` and
    1 <= i <= n-1, is (r, target).  r is the axial distance
    content(i+1) - content(i), with the content (column minus row) of each
    entry counted along the word: +1 when i and i+1 share a row, -1 when
    they share a column, and never 0.  Exchanging i and i+1 keeps the
    tableau standard exactly when |r| >= 2; target is then the index of the
    exchanged word, and None otherwise.
    """
    words = standard_tableaux(shape)
    index = {w: y for y, w in enumerate(words)}
    table = []
    for w in words:
        filled, contents = [0] * shape.rows, []
        for row in w:
            contents.append(filled[row] - row)
            filled[row] += 1
        steps = []
        for i in range(1, shape.n):
            r = contents[i] - contents[i - 1]
            swapped = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
            steps.append((r, index[swapped] if abs(r) >= 2 else None))
        table.append(tuple(steps))
    return table


def young_orthogonal_generator(shape: Partition, i: int) -> np.ndarray:
    """Orthogonal matrix of the transposition (i, i+1), 1 <= i <= n-1.

    Rows and columns follow the ``standard_tableaux`` order.  The diagonal
    entry at tableau y is 1/r with r the axial distance from i to i+1 in y
    (+1 same row, -1 same column); when exchanging i and i+1 keeps y
    standard, the two tableaux couple with off-diagonal sqrt(1 - 1/r^2).
    Both are read from the :func:`_adjacent_swaps` table.
    """
    n = shape.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"transposition index must satisfy 1 <= i <= {n - 1}, got {i}")
    swaps = _adjacent_swaps(shape)
    M = np.zeros((len(swaps), len(swaps)))
    for y, steps in enumerate(swaps):
        r, target = steps[i - 1]
        M[y, y] = 1.0 / r
        if target is not None:
            M[target, y] = math.sqrt(1.0 - 1.0 / r**2)
    return M


def _check_factorial_enumeration(n: int) -> None:
    # Full group enumeration scales like the smallest Liouville space
    # (d=2), so reuse the same size guard.
    if 4**n > max_liouville_dim():
        raise SizeGuardError(
            f"full enumeration of S_{n} refused: 4**{n} exceeds the size limit "
            f"{max_liouville_dim()}"
        )


def irrep_matrices(shape: Partition, n: int) -> dict[tuple[int, ...], np.ndarray]:
    """Young's orthogonal representation for every group element, as a
    dict from one-line permutation tuple to its ``syt_dimension(shape)``
    square matrix.  The character of pi is ``np.trace`` of its matrix.

    Built by breadth-first products of the adjacent-transposition
    generator matrices, so the result is a genuine homomorphism up to
    floating point roundoff.
    """
    if shape.n != n:
        raise ValueError(f"shape {shape} is not a partition of {n}")
    _check_factorial_enumeration(n)
    gens = [
        (adjacent_transposition(n, k), young_orthogonal_generator(shape, k + 1))
        for k in range(n - 1)
    ]
    mats: dict[tuple[int, ...], np.ndarray] = {identity(n): np.eye(syt_dimension(shape))}
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
    return mats


@dataclass(frozen=True)
class ColumnLabel:
    """Label of one basis column: sector shape, tableau index within the
    sector, letter content, and index within that content class."""

    shape: Partition
    tableau_index: int
    weight: tuple[int, ...]
    weight_index: int


class Sector(NamedTuple):
    """A shape's frame columns: from ``start`` on, ``copies`` runs (one per
    standard tableau: the protected dimension) of ``multiplicity`` columns
    (the noisy dimension)."""

    start: int
    copies: int
    multiplicity: int

    @property
    def columns(self) -> slice:
        return slice(self.start, self.start + self.copies * self.multiplicity)

    @property
    def tableaux(self) -> tuple[slice, ...]:
        m = self.multiplicity
        return tuple(slice(a, a + m) for a in range(self.start, self.columns.stop, m))


def _sector_table(d: int, n: int) -> dict[Partition, Sector]:
    """Shape -> its Sector, in frame order."""
    q = d * d
    sectors, start = {}, 0
    for shape in partitions(n, min(n, q)):
        sectors[shape] = Sector(start, syt_dimension(shape), weyl_dimension(shape, q))
        start = sectors[shape].columns.stop
    return sectors


class _Layout(NamedTuple):
    """The column layout Schur-Weyl duality fixes for every basis of one
    (d, n).  Cached and shared, so never edited."""

    classes: MappingProxyType  # content -> (its strings, its frame columns), ascending, read-only
    kostka: dict[Partition, MappingProxyType]  # shape -> kostka_numbers(shape, d * d)
    sectors: MappingProxyType  # the _sector_table
    labels: tuple[ColumnLabel, ...]


@functools.cache
def _layout(d: int, n: int) -> _Layout:
    """The classes come ordered by their first string, so the all-zeros
    (identity) class comes first.  Enumerates every string: callers run the
    size guard first."""
    q = d * d
    strings = letter_strings_by_weight(q, n)
    order = sorted(strings, key=lambda w: strings[w][0])
    sectors = _sector_table(d, n)
    kostka = {shape: kostka_numbers(shape, q) for shape in sectors}
    columns, labels = {w: [] for w in order}, []
    for shape, sector in sectors.items():
        placed = [(w, kostka[shape][w]) for w in order if w in kostka[shape]]
        found = sum(k for _, k in placed)
        if found != sector.multiplicity:
            raise InternalConsistencyError(
                f"shape {shape}: found {found} columns, expected {sector.multiplicity}"
            )
        for y in range(sector.copies):
            for w, k in placed:
                columns[w].extend(range(len(labels), len(labels) + k))
                labels.extend(ColumnLabel(shape, y, w, j) for j in range(k))
    classes = {w: _read_only(np.asarray(strings[w]), np.asarray(columns[w])) for w in order}
    return _Layout(MappingProxyType(classes), kostka, MappingProxyType(sectors), tuple(labels))


@dataclass(frozen=True)
class SuperSchurBasis:
    """Orthonormal letter-string basis adapted to site permutations.

    The column layout depends on (d, n) alone: ``labels`` holds the label
    of every column in frame order, shapes largest first, then tableau
    index, then letter-content class ordered by its first string, then
    index within the class.  In this frame every site permutation acts as
    a direct sum over shapes of D(pi) x I, on the columns ``sectors`` gives.

    Every column lives on the strings of its label's letter content, so the
    basis stores one real square block U[rows, cols] per content class, in
    the layout's class order; the class rows and columns themselves are read
    from the shared ``layout``.  Blocks that do not match the layout in
    number or shape raise :class:`DimensionMismatchError`; a (d, n) over
    the size guard raises SizeGuardError before the layout enumerates a
    string.
    """

    d: int
    n: int
    blocks: tuple[np.ndarray, ...]
    layout: _Layout = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_liouville_dim(self.d, self.n)
        blocks, layout = tuple(self.blocks), _layout(self.d, self.n)
        if [np.shape(B) for B in blocks] != [(len(r),) * 2 for r, _ in layout.classes.values()]:
            raise DimensionMismatchError(
                f"{len(blocks)} class blocks do not match the {len(layout.classes)} square "
                f"class blocks of d={self.d}, n={self.n} in number or shape"
            )
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "layout", layout)

    @property
    def labels(self) -> tuple[ColumnLabel, ...]:
        return self.layout.labels

    @property
    def dim(self) -> int:
        return (self.d * self.d) ** self.n

    @property
    def unitary(self) -> np.ndarray:
        """The dense dim x dim basis matrix, assembled anew on every read."""
        U = np.zeros((self.dim, self.dim))
        for (rows, cols), B in zip(self.layout.classes.values(), self.blocks):
            U[np.ix_(rows, cols)] = B
        return U

    @property
    def sectors(self) -> MappingProxyType:
        """Shape -> its :class:`Sector`, in frame order (read-only)."""
        return self.layout.sectors

    @property
    def shapes(self) -> list[Partition]:
        return list(self.layout.sectors)

    def unitarity_deviation(self) -> float:
        """max |U^T U - I|, one Gram matrix per letter-content class (columns
        of different classes have disjoint supports)."""
        # np.max, unlike the builtin max, lets a NaN through to the caller
        return float(np.max([np.max(np.abs(B.T @ B - np.eye(len(B)))) for B in self.blocks]))


def _tableau_walk(shape: Partition) -> list[tuple[int, int, int, int]]:
    """Young's orthogonal-form walk over the tableaux of ``shape``, as steps
    (source, i, target, r) in breadth-first order from the reference
    tableau, read from the :func:`_adjacent_swaps` table.

    The target tableau is the source with i and i+1 exchanged, and r the
    axial distance from i to i+1 in the source.  With S_i the swap of sites
    i and i+1, S_i V_T = V_T / r + sqrt(1 - 1/r^2) V_T', so
    V_T' = (S_i V_T - V_T / r) / sqrt(1 - 1/r^2).
    """
    swaps = _adjacent_swaps(shape)
    steps, seen, queue = [], {0}, deque([0])
    while queue:
        y = queue.popleft()
        for i, (r, target) in enumerate(swaps[y], start=1):
            if target is None or target in seen:
                continue
            seen.add(target)
            steps.append((y, i, target, r))
            queue.append(target)
    if len(seen) != len(swaps):
        raise InternalConsistencyError(f"shape {shape}: tableau walk left tableaux unfilled")
    return steps


def _transposition(n: int, j: int, k: int) -> tuple[int, ...]:
    p = list(range(n))
    p[j], p[k] = k, j
    return tuple(p)


def super_schur_basis(d: int, n: int) -> SuperSchurBasis:
    """Build the permutation-adapted letter-string basis for n qudits.

    Each class's rows and columns and the Kostka numbers come from the
    (d, n) layout that also gives the basis its ``labels``; its Kostka
    numbers must sum to each shape's multiplicity.

    One letter-content class at a time: the reference-tableau columns of
    each shape are the joint eigenvectors of the Jucys-Murphy elements
    X_k = sum_{j<k} (j k), k = 2..n, with the contents of the reference
    tableau as eigenvalues.  Each X_k acts on the class as a sum of
    transposition gathers; the space is narrowed one k at a time by
    ``eigh`` of its restriction, keeping the eigenvalues within 1/2 of the
    content (the spectrum is integer), and the spaces of a shared content
    prefix serve every shape of the class.  The eigenspace dimensions must
    reproduce the Kostka numbers.  Reference-tableau columns
    get a fixed sign (first sizable component positive); within a class of
    multiplicity above one, the orthonormal basis is the one ``eigh``
    returns.  Young's orthogonal-form walk then generates the columns of
    every other tableau, one row gather per step on the class block.
    Unitarity is checked one letter-content class at a time.

    Built once per (d, n) per process: every later call returns the same
    object, whose class blocks, like the layout's class rows and columns,
    are read-only arrays (``unitary`` still assembles a fresh array on
    every read).  The size guard (SCHUR_DFS_MAX_DIM) is checked on every
    call, cache hits included, and a build that raises is not kept.
    """
    check_liouville_dim(d, n)
    return _super_schur_basis(d, n)


@functools.cache
def _super_schur_basis(d: int, n: int) -> SuperSchurBasis:
    q = d * d
    layout = _layout(d, n)
    shapes = list(layout.sectors)
    walks = {s: _tableau_walk(s) for s in shapes}
    # contents of the reference tableau's entries 2..n (row reading order)
    contents = {s: tuple(c - r for r, c in s.cells())[1:] for s in shapes}
    transpositions = {
        (j, k): string_index_map(_transposition(n, j, k), q, n)
        for k in range(n)
        for j in range(k)
    }
    local = np.empty(q**n, dtype=np.intp)
    class_blocks = []
    for content, (rows, _) in layout.classes.items():
        local[rows] = np.arange(len(rows))
        swaps = {jk: local[t[rows]] for jk, t in transpositions.items()}
        spaces = {(): np.eye(len(rows))}  # joint eigenspace per content prefix
        parts = []
        for shape in shapes:
            expected = layout.kostka[shape].get(content, 0)
            if not expected:
                continue
            V = spaces[()]
            for k in range(1, n):
                prefix = contents[shape][:k]
                if prefix not in spaces:
                    XV = sum(V[swaps[j, k]] for j in range(k))
                    w, W = np.linalg.eigh(V.T @ XV)
                    spaces[prefix] = V @ W[:, np.abs(w - prefix[-1]) < 0.5]
                V = spaces[prefix]
            if V.shape[1] != expected:
                raise InternalConsistencyError(
                    f"shape {shape}, content {content}: reference eigenspace has "
                    f"dimension {V.shape[1]} != multiplicity {expected}"
                )
            lead = V[np.argmax(np.abs(V) > SIGN_TOL, axis=0), np.arange(expected)]
            blocks = [V * np.where(lead < 0, -1.0, 1.0)] + [None] * len(walks[shape])
            for source, i, target, r in walks[shape]:
                B = blocks[source]
                blocks[target] = (B[swaps[i - 1, i]] - B / r) / math.sqrt(1.0 - 1.0 / r**2)
            # the layout's class columns run by shape, then tableau, as these do
            parts.extend(blocks)
        class_blocks.append(np.hstack(parts))
    basis = SuperSchurBasis(d=d, n=n, blocks=_read_only(*class_blocks))
    dev = basis.unitarity_deviation()
    if not dev <= UNITARITY_TOL:
        raise InternalConsistencyError(f"basis not unitary: deviation {dev:.3e}")
    return basis
