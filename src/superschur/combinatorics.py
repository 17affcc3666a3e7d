"""Partitions, tableaux, and the counting formulae for irreducible sectors.

Partitions of the site count n label the sectors of the permutation-group
decomposition; standard tableaux index the symmetric-group multiplicity
space and semistandard fillings index the commutant multiplicity space.
:func:`kostka_numbers` counts those fillings by letter content: the number
of basis columns of a shape and tableau on one content class.  The sectors
themselves, and so their count by row number, are read off the one sector
table of :mod:`superschur.schur`, built from :func:`partitions`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def cells(self):
        """Yield (row, col) pairs, row-major, both 0-based."""
        for r, width in enumerate(self.parts):
            for c in range(width):
                yield r, c

    def hook_length(self, r: int, c: int) -> int:
        arm = self.parts[r] - c - 1
        leg = sum(1 for rr in range(r + 1, self.rows) if self.parts[rr] > c)
        return arm + leg + 1

    def __str__(self) -> str:
        return "{" + ",".join(str(p) for p in self.parts) + "}"


@dataclass(frozen=True)
class StandardTableau:
    """A filling of a partition shape with 1..n, increasing along rows and
    down columns."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        self.shape  # validates the row lengths
        n = sum(len(row) for row in rows)
        if sorted(v for row in rows for v in row) != list(range(1, n + 1)):
            raise ValueError(f"entries must be 1..{n} each once: {rows}")
        if not _rows_and_columns_increase(rows):
            raise ValueError(f"not a standard filling: {rows}")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(row) for row in self.rows))

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.rows)

    def reading_word(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)

    def position(self, value: int) -> tuple[int, int]:
        for r, row in enumerate(self.rows):
            for c, v in enumerate(row):
                if v == value:
                    return r, c
        raise ValueError(f"value {value} not in tableau")

    def axial_distance(self, i: int) -> int:
        """Content difference from the cell of i to the cell of i+1.

        The content of cell (r, c) is c - r; entries sharing a row give +1,
        entries sharing a column give -1.
        """
        r1, c1 = self.position(i)
        r2, c2 = self.position(i + 1)
        return (c2 - r2) - (c1 - r1)

    def swap_adjacent(self, i: int) -> "StandardTableau | None":
        """Exchange i and i+1; None if the result is not standard."""
        swapped = tuple(
            tuple(i + 1 if v == i else i if v == i + 1 else v for v in row)
            for row in self.rows
        )
        if not _rows_and_columns_increase(swapped):
            return None
        return StandardTableau(swapped)


def _rows_and_columns_increase(rows: tuple[tuple[int, ...], ...]) -> bool:
    for row in rows:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for upper, lower in zip(rows, rows[1:]):
        if any(upper[c] >= lower[c] for c in range(len(lower))):
            return False
    return True


def partitions(n: int, max_rows: int) -> list[Partition]:
    """All partitions of n with at most max_rows rows, in reverse
    lexicographic order (so {n} comes first)."""
    if n < 1 or max_rows < 1:
        raise ValueError(f"need n >= 1 and max_rows >= 1, got {n}, {max_rows}")
    out: list[Partition] = []

    def extend(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        if len(prefix) == max_rows:
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(remaining - part, part, prefix)
            prefix.pop()

    extend(n, n, [])
    return out


def standard_tableaux(shape: Partition) -> list[StandardTableau]:
    """All standard tableaux of the given shape, sorted by row reading word.

    The first tableau fills rows left to right, top to bottom; it is the
    reference tableau used to seed the basis construction.
    """
    results: list[StandardTableau] = []
    rows: list[list[int]] = [[] for _ in range(shape.rows)]

    def place(v: int) -> None:
        if v > shape.n:
            results.append(StandardTableau(tuple(tuple(r) for r in rows)))
            return
        for r in range(shape.rows):
            c = len(rows[r])
            if c < shape.parts[r] and (r == 0 or len(rows[r - 1]) > c):
                rows[r].append(v)
                place(v + 1)
                rows[r].pop()

    place(1)
    results.sort(key=lambda t: t.reading_word())
    return results


def syt_dimension(shape: Partition) -> int:
    """Number of standard tableaux (hook length formula)."""
    hooks = math.prod(shape.hook_length(r, c) for r, c in shape.cells())
    return math.factorial(shape.n) // hooks


def weyl_dimension(shape: Partition, degree: int) -> int:
    """Dimension of the commutant multiplicity space for `degree` letters
    (hook content formula); zero when the shape has more than `degree` rows."""
    if degree < 1:
        raise ValueError(f"degree must be positive: {degree}")
    if shape.rows > degree:
        return 0
    num = math.prod(degree + c - r for r, c in shape.cells())
    den = math.prod(shape.hook_length(r, c) for r, c in shape.cells())
    return num // den


def _semistandard_fillings(shape: Partition, degree: int):
    """Yield fillings with letters 0..degree-1, weakly increasing along
    rows and strictly increasing down columns."""
    rows: list[list[int]] = [[] for _ in range(shape.rows)]
    cells = list(shape.cells())

    def place(k: int):
        if k == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        r, c = cells[k]
        lo = 0
        if c > 0:
            lo = rows[r][c - 1]
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, degree):
            rows[r].append(v)
            yield from place(k + 1)
            rows[r].pop()

    yield from place(0)


@lru_cache(maxsize=None)
def kostka_numbers(shape: Partition, degree: int) -> MappingProxyType:
    """The Kostka numbers of ``shape`` over ``degree`` letters: a read-only
    mapping from letter content (counts[a] occurrences of letter a) to the
    number of semistandard fillings with that content, keys in
    lexicographic order.  Contents with no filling are absent, so
    ``kostka_numbers(shape, degree).get(content, 0)`` reads any content;
    the numbers sum to ``weyl_dimension(shape, degree)``."""
    if degree < 1:
        raise ValueError(f"degree must be positive: {degree}")
    counts: Counter = Counter()
    for filling in _semistandard_fillings(shape, degree):
        content = [0] * degree
        for row in filling:
            for v in row:
                content[v] += 1
        counts[tuple(content)] += 1
    return MappingProxyType(dict(sorted(counts.items())))


def letter_strings_by_weight(degree: int, n: int) -> dict[tuple[int, ...], list[int]]:
    """Group the indices of all length-n strings over 0..degree-1 by letter
    content; index lists are ascending (= lexicographic string order)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, s in enumerate(itertools.product(range(degree), repeat=n)):
        content = [0] * degree
        for a in s:
            content[a] += 1
        groups.setdefault(tuple(content), []).append(idx)
    return groups
