"""Partitions, tableaux, and the counting formulae for irreducible sectors.

Partitions of the site count n label the sectors of the permutation-group
decomposition; standard tableaux index the symmetric-group multiplicity
space and semistandard fillings index the commutant multiplicity space.
A standard tableau is plain data, its row word: the row of each entry
1..n in turn.
:func:`kostka_numbers` counts those fillings by letter content: the number
of basis columns of a shape and tableau on one content class.  The sectors
themselves, and so their count by row number, are read off the one sector
table of :mod:`superschur.schur`, built from :func:`partitions`.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers.

    Each part is read with ``operator.index``, so numpy integers are stored
    as ``int``; a bool, a float or a string raises TypeError.
    """

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if any(isinstance(p, bool) for p in parts):
            raise TypeError(f"parts must be integers, not bool: {parts}")
        parts = tuple(operator.index(p) for p in parts)
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


def standard_tableaux(shape: Partition) -> list[tuple[int, ...]]:
    """All standard tableaux of the given shape, each as its row word:
    ``word[k]`` is the 0-based row of entry k + 1.

    The words come sorted by the tableau's row reading word (the entries
    row by row, top to bottom), so the first is the reference tableau,
    which fills rows left to right, top to bottom; it seeds the basis
    construction.  A word is standard exactly when every prefix fills the
    rows as a partition and the whole word fills ``shape``.
    """
    words: list[tuple[int, ...]] = []
    word: list[int] = []
    filled = [0] * shape.rows

    def place() -> None:
        if len(word) == shape.n:
            words.append(tuple(word))
            return
        for r, width in enumerate(shape.parts):
            if filled[r] < width and (r == 0 or filled[r - 1] > filled[r]):
                filled[r] += 1
                word.append(r)
                place()
                word.pop()
                filled[r] -= 1

    place()
    # a stable sort of the positions by row lists the entries row by row
    words.sort(key=lambda w: sorted(range(shape.n), key=w.__getitem__))
    return words


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
