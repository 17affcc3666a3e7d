import math

import numpy as np
import pytest

from superschur import (
    BlockStructureError,
    DimensionMismatchError,
    KrausChannel,
    Lindbladian,
    Partition,
    QuditOperator,
    SuperOperatorMatrix,
    blockwise_exp,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
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
from scipy.linalg import expm


TWO_ONE = Partition((2, 1))

I2 = np.eye(2, dtype=np.complex128)


def superop_for(channel, basis_letters):
    if isinstance(channel, KrausChannel):
        return kraus_superop(channel, basis_letters)
    return lindblad_superop(channel, basis_letters)


def lopsided_channel(n):
    f0 = np.array([[1, 0], [0, math.sqrt(0.5)]], dtype=np.complex128)
    f1 = np.array([[0, math.sqrt(0.5)], [0, 0]], dtype=np.complex128)
    from functools import reduce

    mats = [
        reduce(np.kron, [f0] + [I2] * (n - 1)),
        reduce(np.kron, [f1] + [I2] * (n - 1)),
    ]
    return KrausChannel(2, n, tuple(QuditOperator(2, n, m) for m in mats))


@pytest.fixture(scope="module")
def letters_3():
    return operator_basis(2, 3)


# ---------------------------------------------------------------------------
# decomposition


def test_identity_superop_decomposes_cleanly(schur_2_3, letters_3):
    ch = KrausChannel(2, 3, (QuditOperator(2, 3, np.eye(8)),))
    decomp = decompose(kraus_superop(ch, letters_3), schur_2_3)
    assert decomp.leakage < 1e-12
    for block in decomp.blocks:
        dim = block.matrix.shape[0]
        assert np.max(np.abs(block.matrix - np.eye(dim))) < 1e-12
    assert all(dev < 1e-12 for dev in decomp.twin_deviation.values())


def test_strong_channel_block_structure(schur_2_3, letters_3):
    ch = example_channel("collective_damping", n=3, p=0.5)
    S = kraus_superop(ch, letters_3)
    decomp = decompose(S, schur_2_3)
    assert decomp.kind == "channel"
    assert decomp.leakage < 1e-10
    assert decomp.twin_deviation[TWO_ONE] < 1e-10
    sizes = sorted(b.matrix.shape[0] for b in decomp.blocks)
    assert sizes == [4, 20, 20, 20]
    # reassembling the blocks and undoing the frame recovers the matrix
    R = decomp.reassembled()
    assert np.max(np.abs(R - decomp.schur_matrix)) <= decomp.leakage + 1e-15
    U = schur_2_3.unitary
    back = U @ R @ U.conj().T
    assert np.max(np.abs(back - S.matrix)) < 1e-10


def test_to_schur_frame_is_a_conjugation(schur_2_3, letters_3):
    ch = example_channel("independent_damping", n=3, p=0.3)
    S = kraus_superop(ch, letters_3)
    A = to_schur_frame(S, schur_2_3)
    U = schur_2_3.unitary
    assert np.max(np.abs(U @ A @ U.conj().T - S.matrix)) < 1e-10
    with pytest.raises(DimensionMismatchError):
        to_schur_frame(S, super_schur_basis(2, 2))


# ---------------------------------------------------------------------------
# the class-blocked frame


def random_superop(d, n, seed=0, scale=1.0):
    dim = (d * d) ** n
    rng = np.random.default_rng(seed)
    M = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return SuperOperatorMatrix(d, n, "channel", M, operator_basis(d, n))


def masked_leakage(decomp):
    """Leakage as a masked copy of the frame matrix: zero every diagonal
    block, then take the largest remaining entry."""
    masked = decomp.schur_matrix.copy()
    for b in decomp.blocks:
        sl = decomp.basis.tableau_slice(b.shape, b.tableau_index)
        masked[sl, sl] = 0.0
    return float(np.max(np.abs(masked)))


@pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 4)])
def test_class_blocked_frame_matches_dense_product(d, n):
    basis = super_schur_basis(d, n)
    U = basis.unitary
    for seed, scale in ((0, 1.0), (1, 1e6)):
        superop = random_superop(d, n, seed, scale)
        M = superop.matrix
        S = to_schur_frame(superop, basis)
        assert S.shape == M.shape and S.dtype == M.dtype
        assert np.max(np.abs(S - U.T @ M @ U)) <= 1e-12 * max(1.0, np.max(np.abs(M)))


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
    assert not any(s.flagged for s in dfs_report(decomp, classify_kraus_symmetry(ch)).sectors)


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
    decomp = decompose(superop_for(ch, letters_3), schur_2_3)
    assert decomp.leakage < 1e-10
    assert decomp.twin_deviation[TWO_ONE] < 1e-10
    if isinstance(ch, KrausChannel):
        cert = classify_kraus_symmetry(ch)
    else:
        cert = classify_lindblad_symmetry(ch)
    report = dfs_report(decomp, cert)
    flags = {s.shape.parts: s.flagged for s in report.sectors}
    assert flags == {(3,): False, (2, 1): True, (1, 1, 1): False}
    dims = {s.shape.parts: (s.protected_dim, s.noisy_dim) for s in report.sectors}
    assert dims == {(3,): (1, 20), (2, 1): (2, 20), (1, 1, 1): (1, 4)}
    assert report.classification == cert.classification


def test_asymmetric_channel_leaks(schur_2_3, letters_3):
    decomp = decompose(kraus_superop(lopsided_channel(3), letters_3), schur_2_3)
    assert decomp.leakage > 1e-3
    cert = classify_kraus_symmetry(lopsided_channel(3))
    report = dfs_report(decomp, cert)
    assert not any(s.flagged for s in report.sectors)
    assert report.classification == "none"


def test_two_qubit_sectors_have_no_protected_pairs(schur_2_2, letters_2_2):
    ch = example_channel("collective_damping", n=2, p=0.5)
    decomp = decompose(kraus_superop(ch, letters_2_2), schur_2_2)
    cert = classify_kraus_symmetry(ch)
    report = dfs_report(decomp, cert)
    assert all(s.protected_dim == 1 for s in report.sectors)
    assert not any(s.flagged for s in report.sectors)
    assert sum(s.protected_dim * s.noisy_dim for s in report.sectors) == 16


# ---------------------------------------------------------------------------
# blockwise exponentials


def test_blockwise_exp_matches_dense_exponential(schur_2_3, letters_3):
    lind = example_channel("single_jump", n=3)
    G = lindblad_superop(lind, letters_3)
    decomp = decompose(G, schur_2_3)
    U = schur_2_3.unitary
    for t in (0.1, 1.0):
        propagated = blockwise_exp(decomp, t)
        assert propagated.kind == "channel"
        dense = expm(t * G.matrix)
        back = U @ propagated.schur_matrix @ U.conj().T
        assert np.max(np.abs(back - dense)) < 1e-8


def test_blockwise_exp_at_time_zero_is_identity(schur_2_3, letters_3):
    lind = example_channel("transverse_ising", n=3)
    decomp = decompose(lindblad_superop(lind, letters_3), schur_2_3)
    propagated = blockwise_exp(decomp, 0.0)
    for block in propagated.blocks:
        dim = block.matrix.shape[0]
        assert np.max(np.abs(block.matrix - np.eye(dim))) < 1e-12


def test_closed_system_blocks_stay_unitary(schur_2_3, letters_3):
    lind = example_channel("transverse_ising", n=3)
    decomp = decompose(lindblad_superop(lind, letters_3), schur_2_3)
    propagated = blockwise_exp(decomp, 0.7)
    for block in propagated.blocks:
        dim = block.matrix.shape[0]
        gram = block.matrix.conj().T @ block.matrix
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-10


def test_blockwise_exp_refuses_channels_and_leaky_generators(
    schur_2_3, letters_3
):
    ch = example_channel("collective_damping", n=3)
    decomp = decompose(kraus_superop(ch, letters_3), schur_2_3)
    with pytest.raises(BlockStructureError, match="generator"):
        blockwise_exp(decomp, 1.0)

    H = np.kron(np.kron(np.diag([1.0, -1.0]), I2), I2)
    leaky = Lindbladian(2, 3, QuditOperator(2, 3, H), ())
    decomp = decompose(lindblad_superop(leaky, letters_3), schur_2_3)
    assert decomp.leakage > decomp.tol
    with pytest.raises(BlockStructureError, match="leakage"):
        blockwise_exp(decomp, 1.0)


# ---------------------------------------------------------------------------
# protection probe


def test_protection_check_symmetric_examples(schur_2_3, letters_3):
    for name in ("collective_damping", "single_site_damping", "single_jump"):
        ch = example_channel(name, n=3)
        decomp = decompose(superop_for(ch, letters_3), schur_2_3)
        assert protection_check(decomp) < 1e-10


def test_protection_check_flags_perturbed_dynamics(schur_2_3, letters_3):
    S_sym = kraus_superop(example_channel("collective_damping", n=3, p=0.5), letters_3)
    S_lop = kraus_superop(lopsided_channel(3), letters_3)
    mixed = SuperOperatorMatrix(
        2, 3, "channel", 0.95 * S_sym.matrix + 0.05 * S_lop.matrix, letters_3
    )
    decomp = decompose(mixed, schur_2_3)
    assert protection_check(decomp) > 1e-3


def test_protection_check_is_deterministic(schur_2_3, letters_3):
    decomp = decompose(
        kraus_superop(example_channel("correlated_damping", n=3), letters_3), schur_2_3
    )
    a = protection_check(decomp, trials=3, seed=42)
    b = protection_check(decomp, trials=3, seed=42)
    assert a == b


def test_protection_check_argument_errors(schur_2_2, letters_2_2, schur_2_3, letters_3):
    decomp = decompose(
        kraus_superop(example_channel("collective_damping", n=2), letters_2_2),
        schur_2_2,
    )
    with pytest.raises(BlockStructureError, match="protected"):
        protection_check(decomp)  # no sector has two tableaux at n=2
    decomp = decompose(
        kraus_superop(example_channel("collective_damping", n=3), letters_3), schur_2_3
    )
    with pytest.raises(ValueError, match="trials"):
        protection_check(decomp, trials=0)


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
    for t in (0.0, 0.1, 1.0):
        evolved = blockwise_exp(decomp, t)
        assert len(evolved.blocks) == len(decomp.blocks)
        # every twin of a shape holds the one array exponentiated for it
        assert len({id(b.matrix) for b in evolved.blocks}) == len(basis.shapes)
        for b, own in zip(evolved.blocks, decomp.blocks):
            assert (b.shape, b.tableau_index) == (own.shape, own.tableau_index)
            assert b.matrix is evolved.block(b.shape, 0).matrix
            expected = expm(t * own.matrix)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(b.matrix - expected)) <= 1e-12 * scale


def block_frame_generator(basis, letters, rng):
    """U S U^T for a frame matrix S with one random block per (shape,
    tableau): no leakage, but twins of equal size that differ."""
    S = np.zeros((basis.dim, basis.dim), dtype=np.complex128)
    for shape in basis.shapes:
        for y in range(basis.syt_count(shape)):
            sl = basis.tableau_slice(shape, y)
            m = sl.stop - sl.start
            S[sl, sl] = 0.3 * (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    U = basis.unitary
    return SuperOperatorMatrix(basis.d, basis.n, "generator", U @ S @ U.T, letters)


def test_unequal_twins_are_exponentiated_one_by_one(schur_2_3, letters_3):
    G = block_frame_generator(schur_2_3, letters_3, np.random.default_rng(5))
    decomp = decompose(G, schur_2_3)
    assert decomp.leakage < 1e-12
    assert decomp.twin_deviation[TWO_ONE] > decomp.tol
    U = schur_2_3.unitary
    for t in (0.1, 1.0):
        evolved = blockwise_exp(decomp, t)
        first, second = evolved.block(TWO_ONE, 0).matrix, evolved.block(TWO_ONE, 1).matrix
        assert first is not second
        for b, own in zip(evolved.blocks, decomp.blocks):
            assert np.max(np.abs(b.matrix - expm(t * own.matrix))) < 1e-12
        dense = expm(t * G.matrix)
        assert np.max(np.abs(U @ evolved.schur_matrix @ U.T - dense)) < 1e-12


def test_nan_twin_deviation_takes_the_per_twin_path(schur_2_3, letters_3):
    lind = example_channel("single_jump", n=3)
    decomp = decompose(lindblad_superop(lind, letters_3), schur_2_3)
    decomp.twin_deviation[TWO_ONE] = float("nan")
    evolved = blockwise_exp(decomp, 0.5)
    assert evolved.block(TWO_ONE, 0).matrix is not evolved.block(TWO_ONE, 1).matrix
    assert evolved.block(Partition((3,)), 0).matrix.flags.writeable is False


def test_shared_exponential_is_read_only(schur_2_3, letters_3):
    lind = example_channel("collective_jump", n=3)
    decomp = decompose(lindblad_superop(lind, letters_3), schur_2_3)
    evolved = blockwise_exp(decomp, 1.0)
    shared = evolved.block(TWO_ONE, 1).matrix
    assert shared is evolved.block(TWO_ONE, 0).matrix
    before = shared.copy()
    with pytest.raises(ValueError, match="read-only"):
        shared[0, 0] = 0.0
    assert np.array_equal(evolved.block(TWO_ONE, 0).matrix, before)
