import dataclasses
import itertools
import math

import numpy as np
import pytest

from superschur import (
    Partition,
    SizeGuardError,
    partitions,
    standard_tableaux,
    super_schur_basis,
    syt_dimension,
    weyl_dimension,
)
from superschur import permutations, schur
from superschur.combinatorics import kostka_numbers, letter_strings_by_weight
from superschur.errors import DimensionMismatchError, InternalConsistencyError
from superschur.oracle import matrix_unit, permutation_in_schur
from superschur.permutations import (
    adjacent_transpositions,
    all_permutations,
    compose,
    string_index_map,
)
from superschur.schur import (
    UNITARITY_TOL,
    SuperSchurBasis,
    _adjacent_swaps,
    irrep_matrices,
    young_orthogonal_generator,
)

from schur_oracle import dense_unitarity_deviation, factorial_basis

TWO_ONE = Partition((2, 1))


def cycle_type(p):
    n = len(p)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# orthogonal-form generators


def test_generator_trivial_and_sign_shapes():
    for i in (1, 2):
        assert np.array_equal(young_orthogonal_generator(Partition((3,)), i), [[1.0]])
        assert np.array_equal(
            young_orthogonal_generator(Partition((1, 1, 1)), i), [[-1.0]]
        )


def test_generator_two_one_shape():
    g1 = young_orthogonal_generator(TWO_ONE, 1)
    assert np.max(np.abs(g1 - np.diag([1.0, -1.0]))) < 1e-15
    g2 = young_orthogonal_generator(TWO_ONE, 2)
    want = np.array([[-0.5, math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
    assert np.max(np.abs(g2 - want)) < 1e-15
    assert abs(np.trace(g2)) < 1e-15  # transposition class has character 0


def test_generator_out_of_range():
    with pytest.raises(ValueError):
        young_orthogonal_generator(TWO_ONE, 0)
    with pytest.raises(ValueError):
        young_orthogonal_generator(TWO_ONE, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generators_orthogonal_involutions(n):
    for shape in partitions(n, n):
        for i in range(1, n):
            g = young_orthogonal_generator(shape, i)
            dim = syt_dimension(shape)
            assert g.shape == (dim, dim)
            assert np.max(np.abs(g @ g.T - np.eye(dim))) < 1e-12
            assert np.max(np.abs(g @ g - np.eye(dim))) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generators_satisfy_braid_and_commutation(n):
    for shape in partitions(n, n):
        gens = [young_orthogonal_generator(shape, i) for i in range(1, n)]
        for i in range(len(gens) - 1):
            a, b = gens[i], gens[i + 1]
            assert np.max(np.abs(a @ b @ a - b @ a @ b)) < 1e-12
        for i, j in itertools.combinations(range(len(gens)), 2):
            if j - i >= 2:
                assert np.max(np.abs(gens[i] @ gens[j] - gens[j] @ gens[i])) < 1e-12


def lattice_words(shape):
    """Independent enumeration of the standard tableaux as row words: the
    distinct orderings of the shape's content word in which every prefix
    fills the rows as a partition, in row-reading-word order.  (Filtering
    all ``rows**n`` words instead visits 8**8 of them at {1^8}; the content
    word fixes the final counts to the parts.)"""
    content = [r for r, width in enumerate(shape.parts) for _ in range(width)]
    found = []
    for word in set(itertools.permutations(content)):
        counts = [0] * shape.rows
        for r in word:
            counts[r] += 1
            if r and counts[r] > counts[r - 1]:
                break
        else:
            found.append(word)

    def reading_word(w):  # the entries row by row, each row ascending
        return [k + 1 for r in range(shape.rows) for k in range(shape.n) if w[k] == r]

    return sorted(found, key=reading_word)


def test_swap_table_matches_lattice_words():
    for n in range(1, 9):
        for shape in partitions(n, n):
            words = lattice_words(shape)
            assert standard_tableaux(shape) == words
            assert len(words) == syt_dimension(shape)
            index = {w: y for y, w in enumerate(words)}
            table = _adjacent_swaps(shape)
            assert len(table) == len(words)
            for y, w in enumerate(words):
                rows = [[k + 1 for k in range(n) if w[k] == r] for r in range(shape.rows)]
                content = {v: c - r for r, row in enumerate(rows) for c, v in enumerate(row)}
                assert len(table[y]) == n - 1
                for i, (r, target) in enumerate(table[y], start=1):
                    assert r == content[i + 1] - content[i]
                    swapped = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
                    # i and i+1 in one row leave the word as it is
                    standard = swapped != w and swapped in index
                    assert (target is None) == (abs(r) == 1) == (not standard)
                    if target is not None:
                        assert target == index[swapped]
                        assert table[target][i - 1] == (-r, y)
    # {2,1}: 1 and 2 share a row of tableau 0 (rows (1,2),(3)); exchanging
    # 2 and 3 gives tableau 1 (rows (1,3),(2))
    table = _adjacent_swaps(TWO_ONE)
    assert table[0] == ((1, None), (-2, 1))
    assert table[1] == ((-1, None), (2, 0))


# ---------------------------------------------------------------------------
# full irreducible representations


def test_irrep_matrices_basics():
    rep = irrep_matrices(TWO_ONE, 3)
    assert len(rep) == 6
    assert all(D.shape == (2, 2) for D in rep.values())
    assert np.array_equal(rep[(0, 1, 2)], np.eye(2))
    assert np.trace(rep[(0, 1, 2)]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        irrep_matrices(TWO_ONE, 4)  # not a partition of 4


def test_irrep_homomorphism_exhaustive_n3():
    for shape in partitions(3, 3):
        rep = irrep_matrices(shape, 3)
        for p, q in itertools.product(all_permutations(3), repeat=2):
            got = rep[p] @ rep[q]
            assert np.max(np.abs(got - rep[compose(p, q)])) < 1e-12


def test_irrep_homomorphism_sampled_n5():
    rng = np.random.default_rng(2)
    perms = all_permutations(5)
    for shape in [Partition((3, 2)), Partition((2, 2, 1)), Partition((3, 1, 1))]:
        rep = irrep_matrices(shape, 5)
        for _ in range(15):
            p, q = (perms[i] for i in rng.choice(len(perms), size=2))
            got = rep[p] @ rep[q]
            assert np.max(np.abs(got - rep[compose(p, q)])) < 1e-11


def test_characters_are_class_functions():
    for n in (3, 4):
        for shape in partitions(n, n):
            rep = irrep_matrices(shape, n)
            by_type = {}
            for p in all_permutations(n):
                by_type.setdefault(cycle_type(p), set()).add(round(np.trace(rep[p]), 9))
            for traces in by_type.values():
                assert len(traces) == 1


def test_two_one_characters():
    rep = irrep_matrices(TWO_ONE, 3)
    assert np.trace(rep[(1, 0, 2)]) == pytest.approx(0.0, abs=1e-12)
    assert np.trace(rep[(1, 2, 0)]) == pytest.approx(-1.0)
    assert np.trace(rep[(2, 0, 1)]) == pytest.approx(-1.0)


def test_character_orthogonality_n4():
    shapes = partitions(4, 4)
    reps = {s: irrep_matrices(s, 4) for s in shapes}
    perms = all_permutations(4)
    for a, b in itertools.combinations_with_replacement(shapes, 2):
        inner = sum(np.trace(reps[a][p]) * np.trace(reps[b][p]) for p in perms) / len(perms)
        assert inner == pytest.approx(1.0 if a == b else 0.0, abs=1e-10)


def test_matrix_entry_orthogonality_n3():
    # sum_pi D^a_ij D^b_kl = (n!/dim_a) delta_ab delta_ik delta_jl
    shapes = partitions(3, 3)
    reps = {s: irrep_matrices(s, 3) for s in shapes}
    perms = all_permutations(3)
    for a, b in itertools.product(shapes, repeat=2):
        da, db = syt_dimension(a), syt_dimension(b)
        for i, j, k, l in itertools.product(range(da), range(da), range(db), range(db)):
            total = sum(
                reps[a][p][i, j] * reps[b][p][k, l] for p in perms
            )
            want = 6.0 / da if (a == b and i == k and j == l) else 0.0
            assert total == pytest.approx(want, abs=1e-12)


def test_irrep_size_guard():
    with pytest.raises(SizeGuardError):
        irrep_matrices(Partition((10, 3)), 13)


# ---------------------------------------------------------------------------
# group-algebra matrix units


def test_matrix_unit_algebra_and_identity_resolution():
    shapes = partitions(3, 3)
    units = {
        (s, y, z): matrix_unit(s, y, z, 2, 3)
        for s in shapes
        for y in range(syt_dimension(s))
        for z in range(syt_dimension(s))
    }
    total = np.zeros((64, 64), dtype=np.complex128)
    for (s, y, z), E in units.items():
        if y == z:
            total += E
            assert np.max(np.abs(E - E.conj().T)) < 1e-10
            assert np.max(np.abs(E @ E - E)) < 1e-10
    assert np.max(np.abs(total - np.eye(64))) < 1e-10
    for (s1, y1, z1), (s2, y2, z2) in itertools.product(units, repeat=2):
        product = units[(s1, y1, z1)] @ units[(s2, y2, z2)]
        if s1 == s2 and z1 == y2:
            want = units[(s1, y1, z2)]
        else:
            want = 0.0 * product
        assert np.max(np.abs(product - want)) < 1e-10


def test_matrix_unit_ranks_count_multiplicities():
    for parts, rank in [((3,), 20), ((2, 1), 20), ((1, 1, 1), 4)]:
        E = matrix_unit(Partition(parts), 0, 0, 2, 3)
        assert np.linalg.matrix_rank(E, tol=1e-8) == rank
        assert weyl_dimension(Partition(parts), 4) == rank


def test_matrix_unit_intertwiner_isometry():
    E10 = matrix_unit(TWO_ONE, 1, 0, 2, 3)
    E00 = matrix_unit(TWO_ONE, 0, 0, 2, 3)
    assert np.max(np.abs(E10.conj().T @ E10 - E00)) < 1e-10


# ---------------------------------------------------------------------------
# the adapted basis


def test_basis_unitarity(schur_2_2, schur_2_3, schur_3_2):
    for basis in (schur_2_2, schur_2_3, schur_3_2):
        assert basis.unitarity_deviation() < 1e-10
        assert basis.unitary.shape == (basis.dim, basis.dim)


def test_basis_n1_is_the_identity():
    basis = super_schur_basis(2, 1)
    assert np.max(np.abs(basis.unitary - np.eye(4))) < 1e-12
    assert [lab.shape.parts for lab in basis.labels] == [(1,)] * 4
    assert [lab.weight for lab in basis.labels] == [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ]  # letter order, i.e. classes in first-member-string order


@pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 4)])
def test_basis_sector_bookkeeping(d, n):
    basis = super_schur_basis(d, n)
    assert list(basis.sectors) == basis.shapes == list(partitions(n, min(n, d * d)))
    tiles = []
    for shape, sector in basis.sectors.items():
        assert sector.copies == syt_dimension(shape)
        assert sector.multiplicity == weyl_dimension(shape, d * d)
        assert len(sector.tableaux) == sector.copies
        assert sector.columns == slice(sector.tableaux[0].start, sector.tableaux[-1].stop)
        for y, sl in enumerate(sector.tableaux):
            labs = basis.labels[sl]
            assert len(labs) == sector.multiplicity
            assert all(lab.shape == shape and lab.tableau_index == y for lab in labs)
            weights = [lab.weight for lab in labs]
            # first-member-string class order = descending on content tuples
            assert weights == sorted(weights, reverse=True)
        tiles += sector.tableaux
    # the tableau slices tile the columns in frame order
    assert [sl.start for sl in tiles] == [0] + [sl.stop for sl in tiles[:-1]]
    assert tiles[-1].stop == basis.dim == (d * d) ** n


def test_sector_records_are_read_only(schur_2_3):
    sector = schur_2_3.sectors[TWO_ONE]
    assert sector == (20, 2, 20) and schur_2_3.sectors is schur_2_3.layout.sectors
    with pytest.raises(AttributeError):
        sector.copies = 3


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 2)])
def test_labels_are_the_column_layout_of_d_and_n(d, n):
    basis = super_schur_basis(d, n)
    assert len(basis.labels) == basis.dim
    # frame order: each tableau slice of each shape holds that shape's labels
    for shape, sector in basis.sectors.items():
        for y, sl in enumerate(sector.tableaux):
            cols = basis.labels[sl]
            assert {(lab.shape, lab.tableau_index) for lab in cols} == {(shape, y)}
    # the layout is no input: a basis is made from (d, n) and its classes
    with pytest.raises(TypeError):
        SuperSchurBasis(d, n, basis.blocks, basis.labels)
    assert SuperSchurBasis(d, n, basis.blocks).labels == basis.labels


@pytest.mark.parametrize("case", ["no_blocks", "last_class_missing", "block_short_by_a_row"])
def test_blocks_that_miss_the_layout_are_refused(case, schur_2_2):
    # a class left out passes the per-class unitarity check, and a block
    # short by a row fails only later, in the frame
    blocks = list(schur_2_2.blocks)
    k = next(i for i, B in enumerate(blocks) if len(B) > 1)
    given = {
        "no_blocks": (),
        "last_class_missing": blocks[:-1],
        "block_short_by_a_row": blocks[:k] + [blocks[k][:-1]] + blocks[k + 1 :],
    }[case]
    with pytest.raises(DimensionMismatchError):
        SuperSchurBasis(2, 2, given)


def test_basis_columns_live_on_single_weight_classes(schur_2_3):
    basis = schur_2_3
    classes = letter_strings_by_weight(4, 3)
    U = basis.unitary
    for col, lab in enumerate(basis.labels):
        v = U[:, col]
        support = np.flatnonzero(np.abs(v) > 1e-12)
        allowed = set(classes[lab.weight])
        assert set(support.tolist()) <= allowed


def test_reference_tableau_sign_convention(schur_2_3, schur_3_2):
    for basis in (schur_2_3, schur_3_2):
        U = basis.unitary
        for sector in basis.sectors.values():
            for col in range(*sector.tableaux[0].indices(basis.dim)[:2]):
                v = U[:, col]
                lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
                assert lead.real > 0
                assert abs(lead.imag) < 1e-12


def test_known_reference_column(schur_2_3):
    basis = schur_2_3
    target = np.zeros(64)
    target[int("112", 4)] = math.sqrt(2 / 3)
    target[int("121", 4)] = -math.sqrt(1 / 6)
    target[int("211", 4)] = -math.sqrt(1 / 6)
    U = basis.unitary
    hits = []
    for col, lab in enumerate(basis.labels):
        if lab.shape == TWO_ONE and lab.weight == (0, 2, 1, 0):
            v = U[:, col]
            hits.append(min(np.max(np.abs(v - target)), np.max(np.abs(v + target))))
    assert len(hits) == 2  # one column per tableau sector
    assert min(hits) < 1e-10


def test_two_qubit_sector_sizes_match_brute_force(schur_2_2):
    basis = schur_2_2
    swap = string_index_map((1, 0), 4, 2)
    S = np.zeros((16, 16))
    S[swap, np.arange(16)] = 1.0
    sym_rank = np.linalg.matrix_rank((np.eye(16) + S) / 2)
    anti_rank = np.linalg.matrix_rank((np.eye(16) - S) / 2)
    assert (sym_rank, anti_rank) == (10, 6)
    assert basis.sectors[Partition((2,))].multiplicity == sym_rank
    assert basis.sectors[Partition((1, 1))].multiplicity == anti_rank


def class_projectors(basis):
    """Per (shape, tableau index, content): the class rows and the projector
    B B^T onto the class block's columns with that label."""
    out = {}
    for (rows, cols), B in zip(basis.layout.classes.values(), basis.blocks):
        groups = {}
        for a, c in enumerate(cols):
            lab = basis.labels[c]
            groups.setdefault((lab.shape, lab.tableau_index, lab.weight), []).append(a)
        for key, sel in groups.items():
            out[key] = (rows, B[:, sel] @ B[:, sel].T)
    return out


@pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)])
def test_basis_matches_factorial_oracle(d, n):
    basis = super_schur_basis(d, n)
    oracle = factorial_basis(d, n)
    assert basis.labels == oracle.labels
    # within a class of multiplicity above one the two builders pick
    # different orthonormal bases of the same space, so they are compared
    # through the projector of every (shape, tableau, content class)
    got, want = class_projectors(basis), class_projectors(oracle)
    assert got.keys() == want.keys()
    for key, (rows, P) in got.items():
        assert np.array_equal(rows, want[key][0])
        assert np.max(np.abs(P - want[key][1])) < 1e-12


def kostka_plus_one(shape, q):
    return {w: k + 1 for w, k in kostka_numbers(shape, q).items()}


def kostka_one_moved(shape, q):
    """The Kostka numbers with one count moved from the first content to
    the last, so every shape keeps its sum."""
    table = dict(kostka_numbers(shape, q))
    table[next(iter(table))] -= 1
    table[next(reversed(table))] += 1
    return table


def test_builder_checks_still_raise(monkeypatch, fresh_builders):
    with monkeypatch.context() as m:
        m.setattr(schur, "kostka_numbers", kostka_plus_one)
        with pytest.raises(InternalConsistencyError, match="found .* columns, expected"):
            super_schur_basis(2, 3)
    with monkeypatch.context() as m:
        m.setattr(schur, "weyl_dimension", lambda shape, q: weyl_dimension(shape, q) + 1)
        with pytest.raises(InternalConsistencyError, match="found .* columns, expected"):
            super_schur_basis(2, 3)
    with monkeypatch.context() as m:
        m.setattr(schur, "UNITARITY_TOL", 0.0)
        with pytest.raises(InternalConsistencyError, match="not unitary"):
            super_schur_basis(2, 3)
    # the build above cached the true layout; drop it so the patch is read
    schur._layout.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(schur, "kostka_numbers", kostka_one_moved)
        with pytest.raises(InternalConsistencyError, match="reference eigenspace has dimension"):
            super_schur_basis(2, 3)


def test_build_enumerates_no_group(monkeypatch, fresh_builders):
    def refuse(*args):
        raise AssertionError("the basis build enumerated the symmetric group")

    monkeypatch.setattr(schur, "irrep_matrices", refuse)
    monkeypatch.setattr(permutations, "all_permutations", refuse)
    # a name imported into schur is looked up there, not in permutations
    monkeypatch.setattr(schur, "all_permutations", refuse, raising=False)
    for d, n in [(2, 4), (3, 2)]:
        assert super_schur_basis(d, n).unitarity_deviation() <= UNITARITY_TOL


def transposition_gather(n, j, k):
    p = list(range(n))
    p[j], p[k] = k, j
    return string_index_map(tuple(p), 4, n)


def test_seven_qubit_reference_columns_are_jucys_murphy_eigenvectors(
    monkeypatch, fresh_builders
):
    # X_k = sum_{j<k} (j k) acts on a reference column of shape lambda as the
    # content of entry k in the row-reading tableau of lambda
    monkeypatch.setenv("SCHUR_DFS_MAX_DIM", "16384")
    n = 7
    basis = super_schur_basis(2, n)
    assert len(basis.labels) == 16384
    assert basis.unitarity_deviation() <= 1e-10
    gathers = {(j, k): transposition_gather(n, j, k) for k in range(n) for j in range(k)}
    local = np.empty(4**n, dtype=np.intp)
    worst, checked = 0.0, 0
    for (rows, cols), B in zip(basis.layout.classes.values(), basis.blocks):
        local[rows] = np.arange(len(rows))
        for shape in basis.shapes:
            sel = [
                a for a, c in enumerate(cols)
                if basis.labels[c].shape == shape and basis.labels[c].tableau_index == 0
            ]
            if not sel:
                continue
            V = B[:, sel]
            contents = [c - r for r, c in shape.cells()]
            for k in range(1, n):
                XV = sum(V[local[gathers[j, k][rows]]] for j in range(k))
                worst = max(worst, float(np.max(np.abs(XV - contents[k] * V))))
            checked += len(sel)
    assert checked == sum(sector.multiplicity for sector in basis.sectors.values())
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# the per-class storage and unitarity check


def perturbed(basis, row, col, value):
    # a copy of the class blocks with one entry inside a class changed
    blocks = []
    for (rows, cols), B in zip(basis.layout.classes.values(), basis.blocks):
        B = B.copy()
        if col in cols:
            B[list(rows).index(row), list(cols).index(col)] += value
        blocks.append(B)
    return SuperSchurBasis(basis.d, basis.n, blocks)


@pytest.mark.parametrize("fixture", ["schur_2_2", "schur_2_3", "schur_2_4", "schur_3_2"])
def test_class_unitarity_matches_dense(fixture, request):
    basis = request.getfixturevalue(fixture)
    dense = dense_unitarity_deviation(basis.unitary)
    assert abs(basis.unitarity_deviation() - dense) < 1e-14


def test_within_class_perturbation_exceeds_tolerance(schur_2_3):
    col = 30
    row = letter_strings_by_weight(4, 3)[schur_2_3.labels[col].weight][-1]
    broken = perturbed(schur_2_3, row, col, 1e-6)
    dev = broken.unitarity_deviation()
    assert dev > UNITARITY_TOL
    assert abs(dev - dense_unitarity_deviation(broken.unitary)) < 1e-14


def test_nan_within_class_is_reported(schur_2_3):
    col = 30
    row = letter_strings_by_weight(4, 3)[schur_2_3.labels[col].weight][0]
    broken = perturbed(schur_2_3, row, col, np.nan)
    assert math.isnan(broken.unitarity_deviation())


def test_built_basis_is_real(schur_2_3):
    assert all(B.dtype == np.float64 for B in schur_2_3.blocks)
    assert schur_2_3.unitary.dtype == np.float64


def test_class_index_tiles_the_basis(schur_2_3):
    # the class blocks are the only matrix data the basis stores; the class
    # rows and columns are the layout's
    assert [f.name for f in dataclasses.fields(schur_2_3)] == ["d", "n", "blocks", "layout"]
    classes = schur_2_3.layout.classes
    rows = np.concatenate([r for r, _ in classes.values()])
    cols = np.concatenate([c for _, c in classes.values()])
    assert np.array_equal(np.sort(rows), np.arange(64))
    assert np.array_equal(np.sort(cols), np.arange(64))
    U = schur_2_3.unitary
    for (w, (r, c)), B in zip(classes.items(), schur_2_3.blocks):
        assert np.all(np.diff(c) > 0)
        assert all(schur_2_3.labels[j].weight == w for j in c.tolist())
        assert B.shape == (len(r), len(c)) == (len(r), len(r))
        assert np.array_equal(B, U[np.ix_(r, c)])
    # classes in the order they first appear in the labels
    first = list(dict.fromkeys(lab.weight for lab in schur_2_3.labels))
    assert list(classes) == first


def test_basis_size_guard():
    with pytest.raises(SizeGuardError):
        super_schur_basis(2, 7)


def test_basis_constructor_runs_the_size_guard_first(monkeypatch, fresh_builders):
    def refuse(*args):
        raise AssertionError("enumerated letter strings before the size guard ran")

    monkeypatch.setattr(schur, "letter_strings_by_weight", refuse)
    monkeypatch.setenv("SCHUR_DFS_MAX_DIM", "10")
    with pytest.raises(SizeGuardError):
        SuperSchurBasis(2, 5, ())


# ---------------------------------------------------------------------------
# one basis per (d, n) per process


def test_basis_is_built_once_per_process():
    basis = super_schur_basis(2, 3)
    assert super_schur_basis(2, 3) is basis
    assert super_schur_basis(2, 2) is not basis


def test_cached_basis_arrays_are_read_only():
    basis = super_schur_basis(2, 2)
    rows_and_cols = [a for placed in basis.layout.classes.values() for a in placed]
    for array in rows_and_cols + list(basis.blocks):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # the dense matrix is assembled anew, so writing into it is harmless
    U = basis.unitary
    U[0, 0] = 7.0
    assert basis.unitary[0, 0] == 1.0


def test_cached_basis_containers_are_immutable():
    basis = super_schur_basis(2, 2)
    with pytest.raises(AttributeError):
        basis.labels.pop()
    with pytest.raises(AttributeError):
        basis.blocks.pop()
    with pytest.raises(TypeError):
        basis.layout.sectors[Partition((2,))] = (0, 1, 1)
    with pytest.raises(TypeError):
        basis.layout.classes[(2, 0, 0, 0)] = basis.layout.classes[(2, 0, 0, 0)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        basis.labels = basis.labels[:3]
    again = super_schur_basis(2, 2)
    assert len(again.labels) == 16 and len(again.blocks) == 10
    assert again.sectors[Partition((2,))].multiplicity == 10


def test_size_guard_runs_on_a_cache_hit(monkeypatch):
    super_schur_basis(2, 2)
    monkeypatch.setenv("SCHUR_DFS_MAX_DIM", "10")
    with pytest.raises(SizeGuardError):
        super_schur_basis(2, 2)


def test_failed_build_is_not_cached(monkeypatch, fresh_builders):
    # one failure in the layout, one in the builder after the layout
    with monkeypatch.context() as m:
        m.setattr(schur, "kostka_numbers", kostka_plus_one)
        with pytest.raises(InternalConsistencyError, match="found .* columns, expected"):
            super_schur_basis(2, 3)
    with monkeypatch.context() as m:
        m.setattr(schur, "UNITARITY_TOL", 0.0)
        with pytest.raises(InternalConsistencyError, match="not unitary"):
            super_schur_basis(2, 3)
    basis = super_schur_basis(2, 3)
    assert basis.unitarity_deviation() <= UNITARITY_TOL
    assert super_schur_basis(2, 3) is basis


# ---------------------------------------------------------------------------
# permutations in the adapted frame


def test_permutation_in_schur_identity(schur_2_3):
    block = permutation_in_schur((0, 1, 2), schur_2_3)
    assert block.leakage < 1e-12
    assert np.max(np.abs(block.matrix - np.eye(64))) < 1e-10


@pytest.mark.parametrize("fixture", ["schur_2_2", "schur_2_3", "schur_3_2"])
def test_equivariance_for_generators(fixture, request):
    basis = request.getfixturevalue(fixture)
    for g in adjacent_transpositions(basis.n):
        block = permutation_in_schur(g, basis)
        assert block.leakage < 1e-10
        for shape, sector in basis.sectors.items():
            sl = sector.columns
            D = block.irrep_blocks[shape]
            m = block.multiplicities[shape]
            want = np.kron(D, np.eye(m))
            assert np.max(np.abs(block.matrix[sl, sl] - want)) < 1e-10


def test_equivariance_for_a_three_cycle(schur_2_3):
    block = permutation_in_schur((1, 2, 0), schur_2_3)
    assert block.leakage < 1e-10
    # the sector blocks themselves multiply like the group
    a = permutation_in_schur((1, 0, 2), schur_2_3)
    b = permutation_in_schur((0, 2, 1), schur_2_3)
    for shape in schur_2_3.shapes:
        prod = a.irrep_blocks[shape] @ b.irrep_blocks[shape]
        want = permutation_in_schur(compose((1, 0, 2), (0, 2, 1)), schur_2_3).irrep_blocks[shape]
        assert np.max(np.abs(prod - want)) < 1e-12


def test_block_multiplicities_reported(schur_2_3):
    block = permutation_in_schur((1, 0, 2), schur_2_3)
    assert {s.parts: m for s, m in block.multiplicities.items()} == {
        (3,): 20,
        (2, 1): 20,
        (1, 1, 1): 4,
    }
