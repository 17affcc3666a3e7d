import dataclasses
import itertools
import math

import numpy as np
import pytest

from superschur import (
    Partition,
    SizeGuardError,
    irrep_matrices,
    matrix_unit,
    partitions,
    permutation_in_schur,
    super_schur_basis,
    syt_dimension,
    weyl_dimension,
    young_orthogonal_generator,
)
from superschur import schur
from superschur.combinatorics import letter_strings_by_weight
from superschur.errors import BasisLayoutError, InternalConsistencyError
from superschur.permutations import (
    adjacent_transpositions,
    all_permutations,
    compose,
    string_index_map,
)
from superschur.schur import UNITARITY_TOL, SuperSchurBasis

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


# ---------------------------------------------------------------------------
# full irreducible representations


def test_irrep_matrices_basics():
    rep = irrep_matrices(TWO_ONE, 3)
    assert rep.dim == 2
    assert len(rep.matrices) == 6
    assert np.array_equal(rep.matrices[(0, 1, 2)], np.eye(2))
    assert rep.character((0, 1, 2)) == pytest.approx(2.0)


def test_irrep_homomorphism_exhaustive_n3():
    for shape in partitions(3, 3):
        rep = irrep_matrices(shape, 3)
        for p, q in itertools.product(all_permutations(3), repeat=2):
            got = rep.matrices[p] @ rep.matrices[q]
            assert np.max(np.abs(got - rep.matrices[compose(p, q)])) < 1e-12


def test_irrep_homomorphism_sampled_n5():
    rng = np.random.default_rng(2)
    perms = all_permutations(5)
    for shape in [Partition((3, 2)), Partition((2, 2, 1)), Partition((3, 1, 1))]:
        rep = irrep_matrices(shape, 5)
        for _ in range(15):
            p, q = (perms[i] for i in rng.choice(len(perms), size=2))
            got = rep.matrices[p] @ rep.matrices[q]
            assert np.max(np.abs(got - rep.matrices[compose(p, q)])) < 1e-11


def test_characters_are_class_functions():
    for n in (3, 4):
        for shape in partitions(n, n):
            rep = irrep_matrices(shape, n)
            by_type = {}
            for p in all_permutations(n):
                by_type.setdefault(cycle_type(p), set()).add(round(rep.character(p), 9))
            for traces in by_type.values():
                assert len(traces) == 1


def test_two_one_characters():
    rep = irrep_matrices(TWO_ONE, 3)
    assert rep.character((1, 0, 2)) == pytest.approx(0.0, abs=1e-12)
    assert rep.character((1, 2, 0)) == pytest.approx(-1.0)
    assert rep.character((2, 0, 1)) == pytest.approx(-1.0)


def test_character_orthogonality_n4():
    shapes = partitions(4, 4)
    reps = {s: irrep_matrices(s, 4) for s in shapes}
    perms = all_permutations(4)
    for a, b in itertools.combinations_with_replacement(shapes, 2):
        inner = sum(reps[a].character(p) * reps[b].character(p) for p in perms) / len(
            perms
        )
        assert inner == pytest.approx(1.0 if a == b else 0.0, abs=1e-10)


def test_matrix_entry_orthogonality_n3():
    # sum_pi D^a_ij D^b_kl = (n!/dim_a) delta_ab delta_ik delta_jl
    shapes = partitions(3, 3)
    reps = {s: irrep_matrices(s, 3) for s in shapes}
    perms = all_permutations(3)
    for a, b in itertools.product(shapes, repeat=2):
        da, db = reps[a].dim, reps[b].dim
        for i, j, k, l in itertools.product(range(da), range(da), range(db), range(db)):
            total = sum(
                reps[a].matrices[p][i, j] * reps[b].matrices[p][k, l] for p in perms
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


def test_basis_sector_bookkeeping(schur_2_3):
    basis = schur_2_3
    assert [s.parts for s in basis.shapes] == [(3,), (2, 1), (1, 1, 1)]
    for shape in basis.shapes:
        assert basis.syt_count(shape) == syt_dimension(shape)
        assert basis.multiplicity(shape) == weyl_dimension(shape, 4)
        sl = basis.sector_slice(shape)
        assert sl.stop - sl.start == basis.syt_count(shape) * basis.multiplicity(shape)
        for y in range(basis.syt_count(shape)):
            tsl = basis.tableau_slice(shape, y)
            labs = basis.labels[tsl]
            assert all(lab.shape == shape and lab.tableau_index == y for lab in labs)
            weights = [lab.weight for lab in labs]
            # first-member-string class order = descending on content tuples
            assert weights == sorted(weights, reverse=True)
    assert sum(
        basis.syt_count(s) * basis.multiplicity(s) for s in basis.shapes
    ) == basis.dim == 64


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
        for shape in basis.shapes:
            for col in range(*basis.tableau_slice(shape, 0).indices(basis.dim)[:2]):
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
    assert basis.multiplicity(Partition((2,))) == sym_rank
    assert basis.multiplicity(Partition((1, 1))) == anti_rank


@pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)])
def test_basis_matches_factorial_oracle(d, n):
    basis = super_schur_basis(d, n)
    oracle = factorial_basis(d, n)
    assert basis.labels == oracle.labels
    U, V = basis.unitary, oracle.unitary
    assert np.max(np.abs(U - V)) < 1e-12
    # the reference projector keeps the oracle's summation order, so the
    # reference-tableau columns come out of the same SVD bit for bit
    ref = [j for j, lab in enumerate(basis.labels) if lab.tableau_index == 0]
    assert np.array_equal(U[:, ref], V[:, ref])


def test_builder_checks_still_raise(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(schur, "RANK_TOL", 10.0)
        with pytest.raises(InternalConsistencyError, match="projector rank"):
            super_schur_basis(2, 3)
    with monkeypatch.context() as m:
        m.setattr(schur, "weyl_dimension", lambda shape, q: weyl_dimension(shape, q) + 1)
        with pytest.raises(InternalConsistencyError, match="expected"):
            super_schur_basis(2, 3)
    with monkeypatch.context() as m:
        m.setattr(schur, "UNITARITY_TOL", 0.0)
        with pytest.raises(InternalConsistencyError, match="not unitary"):
            super_schur_basis(2, 3)


# ---------------------------------------------------------------------------
# the per-class storage and unitarity check


def perturbed(basis, row, col, value):
    # complex copy: the built basis is real, and some perturbations are not
    U = basis.unitary.astype(np.complex128)
    U[row, col] += value
    return SuperSchurBasis.from_unitary(basis.d, basis.n, U, list(basis.labels))


@pytest.mark.parametrize("fixture", ["schur_2_2", "schur_2_3", "schur_2_4", "schur_3_2"])
def test_class_unitarity_matches_dense(fixture, request):
    basis = request.getfixturevalue(fixture)
    dense = dense_unitarity_deviation(basis.unitary)
    assert abs(basis.unitarity_deviation() - dense) < 1e-14


def test_entry_outside_class_is_refused(schur_2_3):
    classes = letter_strings_by_weight(4, 3)
    col = 5
    outside = next(i for i in range(64) if i not in classes[schur_2_3.labels[col].weight])
    for value in (1e-300, 1e-3, np.nan):
        with pytest.raises(BasisLayoutError, match="outside its content class") as info:
            perturbed(schur_2_3, outside, col, value)
        assert (info.value.row, info.value.column) == (outside, col)


def test_imaginary_part_is_refused(schur_2_3):
    col = 7
    row = letter_strings_by_weight(4, 3)[schur_2_3.labels[col].weight][0]
    with pytest.raises(BasisLayoutError, match="nonzero imaginary amplitude"):
        perturbed(schur_2_3, row, col, 1e-300j)


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
    assert all(B.dtype == np.float64 for _, _, B in schur_2_3.classes)
    assert schur_2_3.unitary.dtype == np.float64


def test_class_index_tiles_the_basis(schur_2_3):
    # the class blocks are the only matrix data the basis stores
    assert not any(isinstance(v, np.ndarray) for v in vars(schur_2_3).values())
    classes = schur_2_3.classes
    rows = np.concatenate([r for r, _, _ in classes])
    cols = np.concatenate([c for _, c, _ in classes])
    assert np.array_equal(np.sort(rows), np.arange(64))
    assert np.array_equal(np.sort(cols), np.arange(64))
    U = schur_2_3.unitary
    for r, c, B in classes:
        assert B.shape == (len(r), len(c)) == (len(r), len(r))
        assert np.array_equal(B, U[np.ix_(r, c)])
    # classes in the order they first appear in the labels
    first = list(dict.fromkeys(lab.weight for lab in schur_2_3.labels))
    assert [schur_2_3.labels[c[0]].weight for _, c, _ in classes] == first


@pytest.mark.parametrize("size", [1, 3])
def test_missing_column_is_refused(schur_2_3, size):
    # one column of a class of this size moves, without amplitudes, to
    # another class's label: that class gets one column too many
    classes = letter_strings_by_weight(4, 3)
    drop = next(
        j for j, lab in enumerate(schur_2_3.labels) if len(classes[lab.weight]) == size
    )
    other = next(w for w in classes if w != schur_2_3.labels[drop].weight)
    U = schur_2_3.unitary
    U[:, drop] = 0.0
    labels = list(schur_2_3.labels)
    labels[drop] = dataclasses.replace(labels[drop], weight=other)
    with pytest.raises(BasisLayoutError, match="do not tile the space"):
        SuperSchurBasis.from_unitary(2, 3, U, labels)
    # dropped outright, the column leaves the matrix short of square
    keep = [j for j in range(64) if j != drop]
    with pytest.raises(BasisLayoutError, match="need 64 labels"):
        SuperSchurBasis.from_unitary(2, 3, U[:, keep], [schur_2_3.labels[j] for j in keep])


def test_basis_size_guard():
    with pytest.raises(SizeGuardError):
        super_schur_basis(2, 7)


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
        for shape in basis.shapes:
            sl = basis.sector_slice(shape)
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
