import dataclasses
import json
import math
from functools import reduce

import numpy as np
import pytest

from superschur import (
    BlockExponential,
    BlockStructureError,
    DimensionMismatchError,
    EXAMPLE_CHANNELS,
    KrausChannel,
    Lindbladian,
    Partition,
    SuperOperatorMatrix,
    blockwise_exp,
    classify_kraus_symmetry,
    decompose,
    dfs_report,
    example_channel,
    kraus_superop,
    lindblad_superop,
    operator_basis,
    protection_check,
    super_schur_basis,
    to_schur_frame,
)
from superschur import blockdiag, cli
from scipy.linalg import expm

from dispatch import superop


TWO_ONE = Partition((2, 1))

I2 = np.eye(2, dtype=np.complex128)


def lopsided_channel(n):
    f0 = np.array([[1, 0], [0, math.sqrt(0.5)]], dtype=np.complex128)
    f1 = np.array([[0, math.sqrt(0.5)], [0, 0]], dtype=np.complex128)
    from functools import reduce

    mats = [
        reduce(np.kron, [f0] + [I2] * (n - 1)),
        reduce(np.kron, [f1] + [I2] * (n - 1)),
    ]
    return KrausChannel(2, n, mats)


@pytest.fixture(scope="module")
def letters_3():
    return operator_basis(2, 3)


# ---------------------------------------------------------------------------
# decomposition


def test_identity_superop_decomposes_cleanly(schur_2_3, letters_3):
    ch = KrausChannel(2, 3, (np.eye(8),))
    decomp = decompose(kraus_superop(ch, letters_3), schur_2_3)
    assert decomp.leakage < 1e-12
    for B in decomp.blocks.values():
        assert np.max(np.abs(B - np.eye(len(B)))) < 1e-12
    assert all(dev < 1e-12 for dev in decomp.twin_deviation.values())


def test_strong_channel_block_structure(schur_2_3, letters_3):
    ch = example_channel("collective_damping", n=3, p=0.5)
    S = kraus_superop(ch, letters_3)
    # decompose conjugates in S's buffer, so the letter-basis matrix is read first
    M = S.matrix.copy()
    decomp = decompose(S, schur_2_3)
    assert decomp.kind == "channel"
    assert decomp.leakage < 1e-10
    assert decomp.twin_deviation[TWO_ONE] < 1e-10
    assert {shape.parts: len(B) for shape, B in decomp.blocks.items()} == {
        (3,): 20, (2, 1): 20, (1, 1, 1): 4
    }
    # one block per tableau, B (x) I, and undoing the frame recovers the matrix
    R = np.zeros_like(decomp.frame)
    for shape, B in decomp.blocks.items():
        for sl in schur_2_3.sectors[shape].tableaux:
            R[sl, sl] = B
    assert np.max(np.abs(R - decomp.frame)) <= decomp.leakage + 1e-15
    U = schur_2_3.unitary
    back = U @ R @ U.conj().T
    assert np.max(np.abs(back - M)) < 1e-10


def test_to_schur_frame_is_a_conjugation(schur_2_3, letters_3):
    ch = example_channel("independent_damping", n=3, p=0.3)
    S = kraus_superop(ch, letters_3)
    M = S.matrix.copy()
    with pytest.raises(DimensionMismatchError):
        to_schur_frame(S, super_schur_basis(2, 2))
    A = to_schur_frame(S, schur_2_3)
    U = schur_2_3.unitary
    assert np.max(np.abs(U @ A @ U.conj().T - M)) < 1e-10


# ---------------------------------------------------------------------------
# the class-blocked frame


def random_superop(d, n, seed=0, scale=1.0):
    dim = (d * d) ** n
    rng = np.random.default_rng(seed)
    M = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return SuperOperatorMatrix(d, n, "channel", M)


def masked_leakage(decomp):
    """Leakage as a masked copy of the frame matrix: zero every diagonal
    block, then take the largest remaining entry."""
    masked = decomp.frame.copy()
    for sector in decomp.basis.sectors.values():
        for sl in sector.tableaux:
            masked[sl, sl] = 0.0
    return float(np.max(np.abs(masked)))


@pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)])
def test_class_blocked_frame_matches_dense_product(d, n):
    basis = super_schur_basis(d, n)
    other = super_schur_basis(d, 1 if n > 1 else 2)
    U = basis.unitary
    for seed, scale in ((0, 1.0), (1, 1e6)):
        # given in C order, so copied into F order
        complex_map = random_superop(d, n, seed, scale)
        # given in F order, so held as is
        real = np.asfortranarray(complex_map.matrix.real)
        real_map = SuperOperatorMatrix(d, n, "channel", real)
        for superop in (complex_map, real_map):
            M = superop.matrix
            before = M.copy()
            with pytest.raises(DimensionMismatchError):
                to_schur_frame(superop, other)
            assert np.array_equal(M, before)
            # conjugated in M's own buffer, which then reads the frame transposed
            S = to_schur_frame(superop, basis)
            assert S.shape == M.shape and S.dtype == M.dtype
            bound = 1e-12 * max(1.0, np.max(np.abs(before)))
            assert np.max(np.abs(S - U.T @ before @ U)) <= bound
            assert np.shares_memory(S, M)
            assert np.array_equal(M, S.T)
        superop = random_superop(d, n, seed)
        assert np.shares_memory(decompose(superop, basis).frame, superop.matrix)


@pytest.mark.parametrize(
    "index",
    [np.arange(7), np.roll(np.arange(7), 3), np.array([0, 4, 2, 6, 1, 5, 3])],
    ids=["identity", "one-cycle", "fixed-points"],
)
def test_take_rows_in_place_equals_fancy_indexing(index):
    A = np.arange(7 * 5, dtype=np.float64).reshape(7, 5) + 1j
    want = A[index]
    blockdiag._take_rows_in_place(A, index)
    assert np.array_equal(A, want)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("N", [7, 64, 65, 130])
def test_transpose_in_place_equals_the_transpose(N, dtype):
    rng = np.random.default_rng(N)
    A = rng.standard_normal((N, N)).astype(dtype)
    if dtype is np.complex128:
        A += 1j * rng.standard_normal((N, N))
    want = A.T.copy()
    blockdiag._transpose_in_place(A)
    assert np.array_equal(A, want)


def test_in_place_frame_of_a_fortran_ordered_matrix(schur_2_3):
    M = random_superop(2, 3, seed=4).matrix
    U = schur_2_3.unitary
    frames = []
    for given in (M.copy(order="F"), M.copy(order="C")):
        # the F-order matrix is held as is, the C-order one copied once
        superop = SuperOperatorMatrix(2, 3, "channel", given)
        frames.append(to_schur_frame(superop, schur_2_3))
        assert np.shares_memory(frames[-1], superop.matrix)
        assert np.shares_memory(frames[-1], given) == given.flags.f_contiguous
        assert np.max(np.abs(frames[-1] - U.T @ M @ U)) <= 1e-12 * max(1.0, np.max(np.abs(M)))
    assert np.array_equal(*frames)


def test_leakage_equals_masked_copy(schur_2_3, schur_2_4, letters_3):
    superops = [
        kraus_superop(example_channel("collective_damping", n=3, p=0.5), letters_3),
        lindblad_superop(example_channel("single_jump", n=3), letters_3),
        kraus_superop(lopsided_channel(3), letters_3),
        random_superop(2, 3, seed=2),
    ]
    for superop in superops:
        decomp = decompose(superop, schur_2_3)
        assert decomp.leakage == masked_leakage(decomp)
    decomp = decompose(random_superop(2, 4, seed=3), schur_2_4)
    assert decomp.leakage == masked_leakage(decomp)


def test_single_block_frame_has_zero_leakage():
    # at n=1 one block covers the whole frame, so nothing lies outside it
    decomp = decompose(random_superop(2, 1), super_schur_basis(2, 1))
    assert len(decomp.blocks) == 1
    assert decomp.leakage == 0.0


def test_asymmetric_map_leaks_above_tol_on_the_class_path(schur_2_4):
    ch = lopsided_channel(4)
    assert classify_kraus_symmetry(ch).classification == "none"
    decomp = decompose(kraus_superop(ch, operator_basis(2, 4)), schur_2_4)
    assert decomp.leakage > decomp.tol
    assert not any(dfs_report(decomp).values())


@pytest.mark.parametrize(
    "name",
    [
        "collective_damping",
        "correlated_damping",
        "single_site_damping",
        "independent_damping",
        "single_jump",
        "double_jump",
        "collective_jump",
        "transverse_ising",
    ],
)
def test_every_example_family_block_diagonalizes(name, schur_2_3, letters_3):
    ch = example_channel(name, n=3)
    decomp = decompose(superop(ch, letters_3), schur_2_3)
    assert decomp.leakage < 1e-10
    assert decomp.twin_deviation[TWO_ONE] < 1e-10
    flags = {shape.parts: flagged for shape, flagged in dfs_report(decomp).items()}
    assert flags == {(3,): False, (2, 1): True, (1, 1, 1): False}
    basis = schur_2_3
    dims = {s.parts: (sector.copies, sector.multiplicity) for s, sector in basis.sectors.items()}
    assert dims == {(3,): (1, 20), (2, 1): (2, 20), (1, 1, 1): (1, 4)}


def test_asymmetric_channel_leaks(schur_2_3, letters_3):
    decomp = decompose(kraus_superop(lopsided_channel(3), letters_3), schur_2_3)
    assert decomp.leakage > 1e-3
    assert not any(dfs_report(decomp).values())
    assert classify_kraus_symmetry(lopsided_channel(3)).classification == "none"


def test_two_qubit_sectors_have_no_protected_pairs(schur_2_2, letters_2_2):
    ch = example_channel("collective_damping", n=2, p=0.5)
    decomp = decompose(kraus_superop(ch, letters_2_2), schur_2_2)
    sectors = schur_2_2.sectors.values()
    assert all(sector.copies == 1 for sector in sectors)
    assert not any(dfs_report(decomp).values())
    assert sum(sector.copies * sector.multiplicity for sector in sectors) == 16


@pytest.mark.parametrize(
    "name, n", [(name, n) for name in EXAMPLE_CHANNELS for n in range(2, 6)] + [("lopsided", 3)]
)
def test_dfs_report_is_one_flag_per_shape_by_the_rule(name, n):
    ch = lopsided_channel(n) if name == "lopsided" else example_channel(name, n=n)
    basis = super_schur_basis(2, n)
    decomp = decompose(superop(ch, operator_basis(2, n)), basis)
    flags = dfs_report(decomp)
    assert type(flags) is dict and list(flags) == basis.shapes
    for shape, flagged in flags.items():
        protected = basis.sectors[shape].copies
        rule = protected >= 2 and decomp.leakage <= decomp.tol
        assert flagged is (rule and decomp.twin_deviation[shape] <= decomp.tol)
        # every family is symmetric; the lopsided map has no symmetry
        assert flagged == (name != "lopsided" and protected >= 2)
    # a NaN passes neither test
    nan = float("nan")
    assert not any(dfs_report(dataclasses.replace(decomp, leakage=nan)).values())
    twins = dict.fromkeys(basis.shapes, nan)
    assert not any(dfs_report(dataclasses.replace(decomp, twin_deviation=twins)).values())


# ---------------------------------------------------------------------------
# blockwise exponentials


def test_blockwise_exp_matches_dense_exponential(schur_2_3, letters_3):
    lind = example_channel("single_jump", n=3)
    G = lindblad_superop(lind, letters_3)
    # decompose consumes G, so the dense exponentials come first
    dense_at = {t: expm(t * G.matrix) for t in (0.1, 1.0)}
    decomp = decompose(G, schur_2_3)
    U = schur_2_3.unitary
    for t, dense in dense_at.items():
        propagated = blockwise_exp(decomp, t)
        assert isinstance(propagated, BlockExponential)
        back = U @ propagated.schur_matrix @ U.conj().T
        assert np.max(np.abs(back - dense)) < 1e-8


def test_blockwise_exp_at_time_zero_is_identity(schur_2_3, letters_3):
    lind = example_channel("transverse_ising", n=3)
    decomp = decompose(lindblad_superop(lind, letters_3), schur_2_3)
    propagated = blockwise_exp(decomp, 0.0)
    for E in propagated.blocks.values():
        assert np.max(np.abs(E - np.eye(len(E)))) < 1e-12


def test_closed_system_blocks_stay_unitary(schur_2_3, letters_3):
    lind = example_channel("transverse_ising", n=3)
    decomp = decompose(lindblad_superop(lind, letters_3), schur_2_3)
    propagated = blockwise_exp(decomp, 0.7)
    for E in propagated.blocks.values():
        assert np.max(np.abs(E.conj().T @ E - np.eye(len(E)))) < 1e-10


def test_blockwise_exp_refuses_channels_and_leaky_generators(
    schur_2_3, letters_3
):
    ch = example_channel("collective_damping", n=3)
    decomp = decompose(kraus_superop(ch, letters_3), schur_2_3)
    with pytest.raises(BlockStructureError, match="generator"):
        blockwise_exp(decomp, 1.0)

    H = np.kron(np.kron(np.diag([1.0, -1.0]), I2), I2)
    leaky = Lindbladian(2, 3, H, ())
    decomp = decompose(lindblad_superop(leaky, letters_3), schur_2_3)
    assert decomp.leakage > decomp.tol
    with pytest.raises(BlockStructureError, match="leakage"):
        blockwise_exp(decomp, 1.0)


# ---------------------------------------------------------------------------
# protection probe


def test_protection_check_symmetric_examples(schur_2_3, letters_3):
    for name in ("collective_damping", "single_site_damping", "single_jump"):
        ch = example_channel(name, n=3)
        decomp = decompose(superop(ch, letters_3), schur_2_3)
        assert protection_check(decomp) < 1e-10


def test_protection_check_flags_perturbed_dynamics(schur_2_3, letters_3):
    S_sym = kraus_superop(example_channel("collective_damping", n=3, p=0.5), letters_3)
    S_lop = kraus_superop(lopsided_channel(3), letters_3)
    mixed = SuperOperatorMatrix(2, 3, "channel", 0.95 * S_sym.matrix + 0.05 * S_lop.matrix)
    decomp = decompose(mixed, schur_2_3)
    assert protection_check(decomp) > 1e-3


def test_protection_check_is_deterministic(schur_2_3, letters_3):
    decomp = decompose(
        kraus_superop(example_channel("correlated_damping", n=3), letters_3), schur_2_3
    )
    a = protection_check(decomp, seed=42)
    b = protection_check(decomp, seed=42)
    assert a == b


def test_protection_check_lets_a_nan_through(schur_2_3, letters_3):
    lind = example_channel("single_jump", n=3)
    decomp = decompose(lindblad_superop(lind, letters_3), schur_2_3)
    decomp.frame[0, schur_2_3.sectors[TWO_ONE].start] = np.nan
    assert math.isnan(protection_check(decomp))


def test_protection_check_argument_errors(schur_2_2, letters_2_2):
    decomp = decompose(
        kraus_superop(example_channel("collective_damping", n=2), letters_2_2),
        schur_2_2,
    )
    with pytest.raises(BlockStructureError, match="protected"):
        protection_check(decomp)  # no sector has two tableaux at n=2


# ---------------------------------------------------------------------------
# one exponential per shape


LINDBLAD_FAMILIES = ("single_jump", "double_jump", "collective_jump", "transverse_ising")


@pytest.fixture(scope="module")
def bases_3_to_5(schur_2_3, schur_2_4):
    return {3: schur_2_3, 4: schur_2_4, 5: super_schur_basis(2, 5)}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", LINDBLAD_FAMILIES)
def test_shared_exponentials_match_each_blocks_own(name, n, bases_3_to_5):
    basis = bases_3_to_5[n]
    lind = example_channel(name, n=n)
    decomp = decompose(lindblad_superop(lind, operator_basis(2, n)), basis)
    assert max(decomp.twin_deviation.values()) < decomp.tol
    # one block per shape, in frame order: a copy of its tableau-0 block
    assert list(decomp.blocks) == list(basis.shapes)
    for shape, B in decomp.blocks.items():
        sl = basis.sectors[shape].tableaux[0]
        assert np.array_equal(B, decomp.frame[sl, sl]) and not np.shares_memory(B, decomp.frame)
    for t in (0.0, 0.1, 1.0):
        evolved = blockwise_exp(decomp, t)
        assert list(evolved.blocks) == list(basis.shapes)
        for shape, E in evolved.blocks.items():
            # the one exponential of a shape against each twin's own block,
            # read from the frame
            for sl in basis.sectors[shape].tableaux:
                expected = expm(t * decomp.frame[sl, sl])
                scale = max(1.0, float(np.max(np.abs(expected))))
                assert np.max(np.abs(E - expected)) <= 1e-12 * scale


def test_one_array_and_one_exponential_per_shape_at_n6(tmp_path, monkeypatch, capsys):
    decomps, calls = [], []
    decompose_, expm_ = cli.decompose, blockdiag._expm

    def spy_decompose(*args, **kwargs):
        decomps.append(decompose_(*args, **kwargs))
        return decomps[-1]

    monkeypatch.setattr(cli, "decompose", spy_decompose)
    monkeypatch.setattr(blockdiag, "_expm", lambda A, t: calls.append(t) or expm_(A, t))
    path, out = tmp_path / "jump.json", tmp_path / "out.json"
    path.write_text('{"d": 2, "n": 6, "kind": "lindblad", "builder": {"name": "collective_jump"}}')
    assert cli.main(["evolve", str(path), "--times", "0.1,1.0", "--out", str(out)]) == 0
    assert "t=0.1: 70 blocks from 9 exponentials" in capsys.readouterr().out
    (decomp,) = decomps
    assert len(decomp.blocks) == len(decomp.basis.shapes) == 9
    assert not any(B.flags.writeable for B in decomp.blocks.values())
    assert calls == [0.1] * 9 + [1.0] * 9
    results = json.loads(out.read_text())["results"]
    assert [len(entry["blocks"]) for entry in results] == [70, 70]
    # every tableau of a shape reports the one max_abs of its exponential
    for entry in results:
        by_shape = {}
        for block in entry["blocks"]:
            by_shape.setdefault(tuple(block["partition"]), set()).add(block["max_abs"])
        assert len(by_shape) == 9 and all(len(v) == 1 for v in by_shape.values())


@pytest.mark.parametrize("size", [0, 1, 2, 20, 180])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_pade_exponential_matches_scipy(size, dtype):
    rng = np.random.default_rng(size)
    # 1-norms across every Padé degree, and up to 5 squarings at degree 13
    for norm in (1e-6, 1e-2, 0.2, 0.9, 2.0, 5.0, 1e1, 1e2):
        A = rng.standard_normal((size, size))
        if dtype == np.complex128:
            A = A + 1j * rng.standard_normal((size, size))
        if size:
            A *= norm / np.max(np.abs(A).sum(axis=0))
        for t in (1.0, -0.5):
            E, expected = blockdiag._expm(A, t), expm(t * A)
            assert E.dtype == dtype and E.shape == (size, size)
            scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
            assert np.max(np.abs(E - expected), initial=0.0) <= 1e-12 * scale


def test_pade_exponential_passes_nan_and_overflow_without_a_warning():
    # pytest turns every RuntimeWarning into an error
    A = np.eye(3)
    A[1, 2] = np.nan
    assert np.isnan(blockdiag._expm(A)).all()
    big = np.full((20, 20), 1.0 + 1j)
    assert not np.isfinite(blockdiag._expm(big, 1e300)).any()
    # t A itself overflows
    assert np.isnan(blockdiag._expm(np.full((2, 2), 1e300), 1e300)).all()
    assert not np.isfinite(blockdiag._expm(np.diag([800.0, -1.0]))).all()


def block_frame_generator(basis, rng):
    """U S U^T for a frame matrix S with one random block per (shape,
    tableau): no leakage, but twins of equal size that differ."""
    S = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for sector in basis.sectors.values():
        for sl in sector.tableaux:
            m = sector.multiplicity
            S[sl, sl] = 0.3 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    U = basis.unitary
    return SuperOperatorMatrix(basis.d, basis.n, "generator", U @ S @ U.T)


def test_unequal_twins_are_refused(schur_2_3):
    G = block_frame_generator(schur_2_3, np.random.default_rng(5))
    decomp = decompose(G, schur_2_3)
    assert decomp.leakage < 1e-12
    assert decomp.twin_deviation[TWO_ONE] > decomp.tol
    assert not any(dfs_report(decomp).values())
    # one read-only array per shape, whatever its twins
    assert list(decomp.blocks) == list(schur_2_3.shapes)
    assert not any(B.flags.writeable for B in decomp.blocks.values())
    with pytest.raises(BlockStructureError, match=r"\{2,1\} twin deviation .* exceeds tolerance"):
        blockwise_exp(decomp, 0.1)


def test_nan_twin_deviation_is_refused(schur_2_3, letters_3, monkeypatch):
    frame = blockdiag.to_schur_frame

    def nan_in_two_one_tableau_1(M, basis):
        S = frame(M, basis)
        sl = basis.sectors[TWO_ONE].tableaux[1]
        S[sl.start, sl.start] = np.nan
        return S

    monkeypatch.setattr(blockdiag, "to_schur_frame", nan_in_two_one_tableau_1)
    lind = example_channel("single_jump", n=3)
    decomp = decompose(lindblad_superop(lind, letters_3), schur_2_3)
    assert math.isnan(decomp.twin_deviation[TWO_ONE])
    assert decomp.twin_deviation[Partition((3,))] == 0.0
    assert decomp.leakage <= decomp.tol
    with pytest.raises(BlockStructureError, match=r"\{2,1\} twin deviation nan exceeds tolerance"):
        blockwise_exp(decomp, 0.5)


def test_nan_leakage_is_refused(schur_2_3, letters_3):
    lind = example_channel("single_jump", n=3)
    decomp = decompose(lindblad_superop(lind, letters_3), schur_2_3)
    decomp.leakage = float("nan")
    with pytest.raises(BlockStructureError, match="leakage nan exceeds tolerance"):
        blockwise_exp(decomp, 0.5)


def collective_qutrit_jump(n):
    """A permutation-symmetric qutrit generator: the collective shift as
    its one jump, and the sum of the sites' Z + Z^dag as H."""
    X = np.roll(np.eye(3, dtype=np.complex128), 1, axis=0)
    Z = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    eye = np.eye(3, dtype=np.complex128)

    def on(k, A):
        return reduce(np.kron, [A if j == k else eye for j in range(n)])

    H = sum(on(k, Z + Z.conj().T) for k in range(n))
    return Lindbladian(3, n, H, [sum(on(k, X) for k in range(n))])


SYMMETRIC_GENERATORS = {
    "real-frame": lambda: example_channel("collective_jump", n=3),
    "complex-frame": lambda: collective_qutrit_jump(3),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("which", sorted(SYMMETRIC_GENERATORS))
def test_a_non_finite_superoperator_entry_reaches_the_leakage(which, value):
    lind = SYMMETRIC_GENERATORS[which]()
    basis = super_schur_basis(lind.d, lind.n)
    M = lindblad_superop(lind, operator_basis(lind.d, lind.n))
    clean = decompose(dataclasses.replace(M, matrix=M.matrix.copy()), basis)
    assert clean.leakage <= clean.tol and any(dfs_report(clean).values())
    assert np.iscomplexobj(clean.frame) == (which == "complex-frame")
    # an entry in a row and a column of letter-content classes of several
    # strings, so the conjugation spreads it off the blocks
    dim = basis.dim
    M.matrix[dim // 2 + 1, dim // 3] = value
    decomp = decompose(M, basis)
    assert not np.isfinite(decomp.leakage)
    assert not any(dfs_report(decomp).values())
    with pytest.raises(BlockStructureError, match=r"^leakage (nan|inf) exceeds tolerance"):
        blockwise_exp(decomp, 0.5)


def test_shared_exponential_is_read_only(schur_2_3, letters_3):
    lind = example_channel("collective_jump", n=3)
    decomp = decompose(lindblad_superop(lind, letters_3), schur_2_3)
    evolved = blockwise_exp(decomp, 1.0)
    shared = evolved.blocks[TWO_ONE]
    before = shared.copy()
    with pytest.raises(ValueError, match="read-only"):
        shared[0, 0] = 0.0
    assert np.array_equal(evolved.blocks[TWO_ONE], before)
