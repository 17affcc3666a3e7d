import itertools
import json

import numpy as np
import pytest

from superschur import (
    Partition,
    kostka_numbers,
    letter_strings_by_weight,
    partitions,
    standard_tableaux,
    syt_dimension,
    weyl_dimension,
)
from superschur.cli import main


def brute_partitions(n, max_rows):
    """Independent enumeration: weakly decreasing positive tuples summing to n."""
    found = set()
    for rows in range(1, min(n, max_rows) + 1):
        for parts in itertools.product(range(1, n + 1), repeat=rows):
            if sum(parts) == n and all(a >= b for a, b in zip(parts, parts[1:])):
                found.add(parts)
    return found


def bounded_part_counts(n, k):
    """Coin-change count of partitions of 0..n into parts of size <= k."""
    ways = [1] + [0] * n
    for part in range(1, k + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways


# ---------------------------------------------------------------------------
# partitions


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((2, 0))
    # parts are read with operator.index: no float, string or bool
    # coerces, and numpy integers are stored as int
    for parts in [(2.7, 1), ("3",), (True, True), (2, False), (np.float64(2.0),)]:
        with pytest.raises(TypeError):
            Partition(parts)
    p = Partition((np.int64(3), np.uint8(1)))
    assert p.parts == (3, 1) and all(type(x) is int for x in p.parts)
    assert p == Partition((3, 1))
    p = Partition((3, 1))
    assert p.n == 4
    assert p.rows == 2
    assert str(p) == "{3,1}"


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("max_rows", [1, 2, 3, 6])
def test_partitions_match_brute_force(n, max_rows):
    got = partitions(n, max_rows)
    assert {p.parts for p in got} == brute_partitions(n, max_rows)
    assert len(set(got)) == len(got)


def test_partitions_reverse_lexicographic_order():
    got = [p.parts for p in partitions(4, 4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in partitions(3, 3)] == [(3,), (2, 1), (1, 1, 1)]
    # max_rows truncates the tail of the list, not individual entries
    assert [p.parts for p in partitions(4, 2)] == [(4,), (3, 1), (2, 2)]
    for n in range(1, 8):
        seq = [p.parts for p in partitions(n, n)]
        assert seq == sorted(seq, reverse=True)
        assert seq[0] == (n,)
        assert seq[-1] == (1,) * n


@pytest.mark.parametrize("n", [*range(1, 9), 12])
def test_row_count_tally_against_generating_function(n, tmp_path, capsys):
    # partitions with exactly k rows = (parts <= k) - (parts <= k-1), by
    # conjugation of shapes; decompose tallies the shapes of at most
    # min(n, d*d) rows, and n = 12 lies above the size cap at d = 2 and 3
    # and above the row cap d*d = 9 at d = 3
    for d in (2, 3):
        out = tmp_path / f"decompose-{d}.json"
        assert main(["decompose", "--n", str(n), "--d", str(d), "--out", str(out)]) == 0
        capsys.readouterr()
        counts = json.loads(out.read_text())["partition_counts_by_rows"]
        oracle = [
            bounded_part_counts(n, k)[n] - bounded_part_counts(n, k - 1)[n]
            for k in range(1, min(n, d * d) + 1)
        ]
        assert counts == oracle


# ---------------------------------------------------------------------------
# standard tableaux


def tableau_rows(word):
    """The rows of the tableau with row word ``word``, entries 1-based."""
    return [[k + 1 for k in range(len(word)) if word[k] == r] for r in range(max(word) + 1)]


def test_standard_tableaux_small_shapes():
    # {2,1}: rows ((1,2),(3,)) then ((1,3),(2,))
    assert standard_tableaux(Partition((2, 1))) == [(0, 0, 1), (0, 1, 0)]
    # {2,2}: rows ((1,2),(3,4)) then ((1,3),(2,4))
    assert standard_tableaux(Partition((2, 2))) == [(0, 0, 1, 1), (0, 1, 0, 1)]
    assert standard_tableaux(Partition((3,))) == [(0, 0, 0)]
    assert [tableau_rows(w) for w in standard_tableaux(Partition((2, 1)))] == [
        [[1, 2], [3]],
        [[1, 3], [2]],
    ]


def test_first_tableau_is_row_filling():
    for n in range(1, 6):
        for shape in partitions(n, n):
            tabs = standard_tableaux(shape)
            filler = []
            v = 1
            for width in shape.parts:
                filler.append(list(range(v, v + width)))
                v += width
            assert tableau_rows(tabs[0]) == filler
            words = [sum(tableau_rows(w), []) for w in tabs]
            assert words == sorted(words)


def test_tableau_count_matches_hook_formula():
    for n in range(1, 7):
        for shape in partitions(n, n):
            tabs = standard_tableaux(shape)
            assert len(tabs) == len(set(tabs)) == syt_dimension(shape)


def test_syt_dimension_known_values():
    assert syt_dimension(Partition((3,))) == 1
    assert syt_dimension(Partition((1, 1, 1))) == 1
    assert syt_dimension(Partition((2, 1))) == 2
    assert syt_dimension(Partition((3, 2))) == 5
    assert syt_dimension(Partition((2, 2))) == 2
    assert syt_dimension(Partition((4, 2))) == 9


# ---------------------------------------------------------------------------
# multiplicity-space dimensions


def test_weyl_dimension_known_values():
    assert weyl_dimension(Partition((3,)), 4) == 20
    assert weyl_dimension(Partition((2, 1)), 4) == 20
    assert weyl_dimension(Partition((1, 1, 1)), 4) == 4
    assert weyl_dimension(Partition((2,)), 4) == 10
    assert weyl_dimension(Partition((1, 1)), 4) == 6
    assert weyl_dimension(Partition((1,)), 9) == 9
    assert weyl_dimension(Partition((2, 1)), 3) == 8
    assert weyl_dimension(Partition((1, 1, 1, 1, 1)), 4) == 0  # too many rows
    with pytest.raises(ValueError):
        weyl_dimension(Partition((2,)), 0)


@pytest.mark.parametrize("degree", [4, 9])
def test_dimension_sum_identity(degree):
    # sectors tile the whole space: sum over shapes of syt * weyl = degree**n
    for n in range(1, 6):
        total = sum(
            syt_dimension(s) * weyl_dimension(s, degree) for s in partitions(n, n)
        )
        assert total == degree**n


def brute_fillings_by_content(shape, degree):
    """Check every row-major assignment for the semistandard conditions."""
    cells = list(shape.cells())
    tally = {}
    for values in itertools.product(range(degree), repeat=len(cells)):
        grid = {}
        ok = True
        for (r, c), v in zip(cells, values):
            if c > 0 and v < grid[(r, c - 1)]:
                ok = False
                break
            if r > 0 and v <= grid[(r - 1, c)]:
                ok = False
                break
            grid[(r, c)] = v
        if not ok:
            continue
        content = [0] * degree
        for v in values:
            content[v] += 1
        key = tuple(content)
        tally[key] = tally.get(key, 0) + 1
    return tally


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_weight_multiplicities_match_brute_force(degree):
    for n in range(1, 5):
        for shape in partitions(n, n):
            table = kostka_numbers(shape, degree)
            assert table == brute_fillings_by_content(shape, degree)
            assert list(table) == sorted(table)
            assert sum(table.values()) == weyl_dimension(shape, degree)


def test_weight_vectors_sorted_and_specific_values():
    table = kostka_numbers(Partition((2, 1)), 4)
    assert list(table) == sorted(table)
    assert all(sum(content) == 3 for content in table)
    assert table[(0, 2, 1, 0)] == 1
    assert table[(1, 1, 1, 0)] == 2
    assert sum(table.values()) == 20


def test_weight_multiplicity_zero_cases():
    # a column cannot repeat a letter; contents with no filling are absent
    assert kostka_numbers(Partition((1, 1)), 2) == {(1, 1): 1}
    assert kostka_numbers(Partition((2,)), 2) == {(0, 2): 1, (1, 1): 1, (2, 0): 1}
    assert kostka_numbers(Partition((1, 1, 1)), 2) == {}
    for shape in partitions(4, 4):
        assert all(k > 0 for k in kostka_numbers(shape, 3).values())


def test_weight_vector_validation():
    table = kostka_numbers(Partition((2, 1)), 4)
    with pytest.raises(TypeError):
        table[(0, 2, 1, 0)] = 5
    with pytest.raises(TypeError):
        del table[(1, 1, 1, 0)]
    assert kostka_numbers(Partition((2, 1)), 4)[(0, 2, 1, 0)] == 1
    with pytest.raises(ValueError):
        kostka_numbers(Partition((2,)), 0)


def test_letter_strings_by_weight_partitions_the_index_set():
    import math

    groups = letter_strings_by_weight(4, 3)
    all_indices = sorted(i for block in groups.values() for i in block)
    assert all_indices == list(range(64))
    for content, block in groups.items():
        assert sum(content) == 3
        assert block == sorted(block)
        expected = math.factorial(3)
        for c in content:
            expected //= math.factorial(c)
        assert len(block) == expected
    assert len(groups) == 20  # weak compositions of 3 into 4 parts
