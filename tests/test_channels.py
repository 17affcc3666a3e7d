import math
import re
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from superschur import (
    ChannelInvariantError,
    ChannelSpecError,
    DimensionMismatchError,
    KrausChannel,
    Lindbladian,
    channels,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
    example_channel,
    kraus_superop,
    lindblad_superop,
    mixing_unitary,
    operator_basis,
    orthogonalize_kraus,
    vectorize,
)
from superschur.channels import (
    EXAMPLE_CHANNELS,
    SuperOperatorMatrix,
    _builder_params,
    _psd_sqrt,
    channel_from_dict,
)
from superschur.oracle import permutation_matrix
from superschur.permutations import adjacent_transpositions, all_permutations, compose

import builder_oracle
from dispatch import certificate, superop
from superop_oracle import kraus_superop_columns, lindblad_superop_columns

I2 = np.eye(2, dtype=np.complex128)
LOWER = np.array([[0, 1], [0, 0]], dtype=np.complex128)


def damping_pair(p):
    f0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=np.complex128)
    f1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=np.complex128)
    return f0, f1


def single_qubit_channel(*mats):
    return KrausChannel(2, 1, mats)


# ---------------------------------------------------------------------------
# invariant validation


def test_kraus_channel_accepts_amplitude_damping():
    ch = single_qubit_channel(*damping_pair(0.3))
    assert ch.closure_deviation < 1e-12


def test_kraus_closure_deviation_is_measured_once_on_construction():
    ch = example_channel("independent_damping", n=3, p=0.3)
    closure = sum(op.conj().T @ op for op in ch.kraus_ops)
    assert ch.closure_deviation == float(np.max(np.abs(closure - np.eye(8))))
    # a stored field, not a property that sums F^dag F again on each read
    assert vars(ch)["closure_deviation"] == ch.closure_deviation


def test_kraus_channel_rejects_broken_closure():
    f0, _ = damping_pair(0.5)
    with pytest.raises(ChannelInvariantError, match="closure"):
        single_qubit_channel(f0)


def test_kraus_channel_rotates_non_orthogonal_sets():
    # two halves of the identity overlap fully: their Gram matrix has one
    # nonzero eigenvalue, so the canonical set is one operator, +-I
    ch = single_qubit_channel(I2 / math.sqrt(2), I2 / math.sqrt(2))
    assert ch.kraus_ops.shape == (1, 2, 2)
    assert np.max(np.abs(np.abs(ch.kraus_ops[0]) - I2)) < 1e-15
    assert ch.closure_deviation < 1e-15


def test_kraus_channel_drops_zero_operators_and_rejects_empty():
    ch = single_qubit_channel(I2, np.zeros((2, 2)))
    assert np.array_equal(ch.kraus_ops, I2[None])
    with pytest.raises(ChannelInvariantError, match="at least one"):
        KrausChannel(2, 1, ())
    # a set of zeros is dropped whole, and closes to nothing
    with pytest.raises(ChannelInvariantError, match="closure"):
        single_qubit_channel(np.zeros((2, 2)))


def test_lindbladian_validation():
    with pytest.raises(ChannelInvariantError, match="Hermitian"):
        Lindbladian(2, 1, LOWER, ())
    with pytest.raises(ChannelInvariantError, match="traceless"):
        Lindbladian(2, 1, np.zeros((2, 2)), (I2,))
    # parallel jumps merge into one of the summed rate, sqrt(5) LOWER
    lind = Lindbladian(2, 1, np.zeros((2, 2)), (LOWER, 2 * LOWER))
    assert lind.jump_ops.shape == (1, 2, 2)
    assert np.max(np.abs(np.abs(lind.jump_ops[0]) - math.sqrt(5) * LOWER)) < 1e-14
    assert np.max(np.abs(lind._sink - 5 * LOWER.T @ LOWER)) < 1e-14
    # no jumps is a closed system, held as a (0, D, D) stack
    lind = Lindbladian(2, 1, np.diag([1.0, -1.0]), ())
    assert lind.jump_ops.shape == (0, 2, 2) and len(lind.jump_ops) == 0


@pytest.mark.parametrize("name", sorted(EXAMPLE_CHANNELS))
def test_operators_are_one_read_only_complex_stack(name):
    ch = example_channel(name, n=3)
    stacks = [ch.kraus_ops] if isinstance(ch, KrausChannel) else [ch.jump_ops]
    if isinstance(ch, Lindbladian):
        assert ch.hamiltonian.shape == (8, 8)
        stacks.append(ch.hamiltonian)
    for stack in stacks:
        assert stack.dtype == np.complex128 and not stack.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack[...] = 0
    ops = stacks[0]
    assert ops.shape == (len(ops), 8, 8)
    assert [F.shape for F in ops] == [(8, 8)] * len(ops)
    # the closed system is the one family with no operators
    assert (len(ops) == 0) == (name == "transverse_ising")


@pytest.mark.parametrize(
    "build, label",
    [
        (lambda bad: KrausChannel(2, 1, [I2 / math.sqrt(2), bad]), "Kraus operator 1"),
        (lambda bad: Lindbladian(2, 1, np.zeros((2, 2)), [LOWER, LOWER.T, bad]), "jump operator 2"),
        (lambda bad: Lindbladian(2, 1, bad, [LOWER]), "Hamiltonian"),
        (lambda bad: mixing_unitary([LOWER, bad], (0,), 2, 1), "operator 1"),
    ],
    ids=["kraus", "jumps", "hamiltonian", "mixing_unitary"],
)
def test_a_wrong_shape_or_a_non_finite_entry_is_refused_by_index(build, label):
    with pytest.raises(DimensionMismatchError) as err:
        build(np.eye(3))
    assert str(err.value) == f"{label}: shape (3, 3) does not match d**n = 2 for d=2, n=1"
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError) as err:
            build(np.array([[0.0, 1.0], [bad, 0.0]]))
        assert str(err.value) == f"{label}: matrix entries must be finite"


def test_a_map_of_too_few_levels_or_sites_is_refused():
    with pytest.raises(DimensionMismatchError, match="need d >= 2 and n >= 1, got d=1, n=1"):
        KrausChannel(1, 1, [np.eye(1)])
    with pytest.raises(DimensionMismatchError, match="got d=2, n=0"):
        Lindbladian(2, 0, np.zeros((1, 1)), [])


def test_operators_are_copied_from_the_input():
    given = np.stack([I2 / math.sqrt(2), np.diag([1.0, -1.0]) / math.sqrt(2)]).astype(np.complex128)
    H = np.diag([1.0, -1.0]).astype(np.complex128)
    ch = KrausChannel(2, 1, given)
    lind = Lindbladian(2, 1, H, given[1:] * 0.5)
    assert given.flags.writeable and H.flags.writeable
    assert not np.shares_memory(ch.kraus_ops, given)
    assert not np.shares_memory(lind.hamiltonian, H)
    held = ch.kraus_ops.copy()
    given[...] = 0
    H[...] = 0
    assert np.array_equal(ch.kraus_ops, held)
    assert np.array_equal(lind.hamiltonian, np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# canonical form helpers


def test_psd_sqrt_diagonal_and_random():
    got = _psd_sqrt(np.diag([4.0, 1.0]))
    assert np.max(np.abs(got - np.diag([2.0, 1.0]))) < 1e-12
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    M = A @ A.conj().T
    R = _psd_sqrt(M)
    assert np.max(np.abs(R - R.conj().T)) < 1e-10
    assert np.max(np.abs(R @ R - M)) < 1e-10


def test_psd_sqrt_rejects_bad_input():
    with pytest.raises(ChannelInvariantError, match="Hermitian"):
        _psd_sqrt(LOWER)
    with pytest.raises(ChannelInvariantError, match="positive"):
        _psd_sqrt(np.diag([1.0, -0.5]))


def test_orthogonalize_preserves_the_channel_map():
    f0, f1 = damping_pair(0.4)
    raw = [
        np.kron(f0, I2) / math.sqrt(2),
        np.kron(I2, f0) / math.sqrt(2),
        np.kron(f1, I2) / math.sqrt(2),
        np.kron(I2, f1) / math.sqrt(2),
    ]
    out = orthogonalize_kraus(2, 2, raw)
    stack = np.stack([m.reshape(-1) for m in out])
    gram = np.conj(stack) @ stack.T / 4
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-12
    weights = np.diag(gram).real
    assert np.all(weights[:-1] >= weights[1:] - 1e-12)  # descending
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        before = sum(F @ rho @ F.conj().T for F in raw)
        after = sum(F @ rho @ F.conj().T for F in out)
        assert np.max(np.abs(before - after)) < 1e-12


def test_orthogonalize_passes_orthogonal_sets_through():
    f0, f1 = damping_pair(0.7)
    out = orthogonalize_kraus(2, 1, [f0, f1])
    assert len(out) == 2
    assert np.array_equal(out[0], f0)
    assert np.array_equal(out[1], f1)
    out = orthogonalize_kraus(2, 1, [f0, f1, np.zeros((2, 2))])
    assert len(out) == 2
    assert orthogonalize_kraus(2, 1, []) == []


def non_orthogonal_sets(d, n, seed, count=3):
    """A Kraus set, the blocks of a random isometry mixed by a random
    unitary, and a traceless jump set whose second jump overlaps the
    first, with a random Hermitian H."""
    rng = np.random.default_rng(seed)
    D = d**n

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    V = np.linalg.qr(gaussian(count * D, D))[0].reshape(count, D, D)
    kraus = np.tensordot(np.linalg.qr(gaussian(count, count))[0], V, axes=(1, 0))
    jumps = gaussian(count, D, D)
    jumps -= np.trace(jumps, axis1=1, axis2=2)[:, None, None] / D * np.eye(D)
    jumps[1] += jumps[0]
    B = gaussian(D, D)
    return kraus, jumps, (B + B.conj().T) / 2


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (3, 1)])
def test_canonicalizing_keeps_the_map(d, n, seed):
    kraus, jumps, H = non_orthogonal_sets(d, n, seed)
    basis = operator_basis(d, n)
    # the oracles apply the raw operators, one dense column at a time
    cases = [
        (KrausChannel(d, n, kraus), kraus_superop_columns,
         SimpleNamespace(d=d, n=n, kraus_ops=kraus), kraus),
        (Lindbladian(d, n, H, jumps), lindblad_superop_columns,
         SimpleNamespace(d=d, n=n, hamiltonian=H, jump_ops=jumps), jumps),
    ]
    for built, oracle, raw, ops in cases:
        G = channels._gram(ops)
        assert np.max(np.abs(G - np.diag(G.diagonal()))) > channels._orthogonality_bound(G)
        want = oracle(raw, basis).matrix
        held = built.kraus_ops if isinstance(built, KrausChannel) else built.jump_ops
        G = channels._gram(held)
        assert np.max(np.abs(G - np.diag(G.diagonal()))) <= channels._orthogonality_bound(G)
        got = superop(built, basis).matrix
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize(
    "name, stacks", [("collective_damping", 1), ("independent_damping", 1), ("collective_jump", 2)]
)
def test_a_builder_map_copies_its_operators_once_and_forms_one_gram_matrix(
    name, stacks, monkeypatch
):
    calls = {"_operator_stack": 0, "_gram": 0}
    for helper in calls:
        def counted(*args, _real=getattr(channels, helper), _name=helper):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(channels, helper, counted)
    example_channel(name, n=3)
    # a Lindbladian also stacks its Hamiltonian, which has no Gram matrix
    assert calls == {"_operator_stack": stacks, "_gram": 1}


# ---------------------------------------------------------------------------
# superoperator matrices


def test_identity_channel_superop_is_identity():
    basis = operator_basis(2, 2)
    ch = KrausChannel(2, 2, (np.eye(4),))
    S = kraus_superop(ch, basis)
    assert S.kind == "channel"
    assert np.max(np.abs(S.matrix - np.eye(16))) < 1e-12


def test_amplitude_damping_superop_matches_analytic_form():
    p = 0.36
    basis = operator_basis(2, 1)
    ch = single_qubit_channel(*damping_pair(p))
    S = kraus_superop(ch, basis).matrix
    want = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.8, 0.0, 0.0],
            [0.0, 0.0, 0.8, 0.0],
            [0.36, 0.0, 0.0, 0.64],
        ]
    )
    assert np.max(np.abs(S - want)) < 1e-12


def test_full_damping_sends_excited_to_ground():
    basis = operator_basis(2, 1)
    ch = single_qubit_channel(*damping_pair(1.0))
    S = kraus_superop(ch, basis).matrix
    excited = vectorize(np.diag([0.0, 1.0]), basis)
    ground = vectorize(np.diag([1.0, 0.0]), basis)
    assert np.max(np.abs(S @ excited - ground)) < 1e-12


def test_channel_superop_has_trace_preserving_identity_row():
    basis = operator_basis(2, 3)
    ch = example_channel("collective_damping", n=3, p=0.3)
    S = kraus_superop(ch, basis).matrix
    row = np.zeros(64)
    row[0] = 1.0
    assert np.max(np.abs(S[0] - row)) < 1e-12


def test_damping_lindblad_superop_matches_analytic_form():
    gamma = 0.8
    basis = operator_basis(2, 1)
    lind = Lindbladian(
        2,
        1,
        np.zeros((2, 2)),
        (math.sqrt(gamma) * LOWER,),
    )
    G = lindblad_superop(lind, basis)
    assert G.kind == "generator"
    want = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, -gamma / 2, 0.0, 0.0],
            [0.0, 0.0, -gamma / 2, 0.0],
            [gamma, 0.0, 0.0, -gamma],
        ]
    )
    assert np.max(np.abs(G.matrix - want)) < 1e-12


def test_hamiltonian_rotation_generator():
    basis = operator_basis(2, 1)
    lind = Lindbladian(2, 1, np.diag([1.0, -1.0]), ())
    G = lindblad_superop(lind, basis).matrix
    want = np.zeros((4, 4))
    want[2, 1] = 2.0  # -i[Z, X] = 2Y
    want[1, 2] = -2.0
    assert np.max(np.abs(G - want)) < 1e-12
    # generator annihilates the identity row
    assert np.max(np.abs(G[0])) < 1e-12


def test_superoperator_matrix_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        SuperOperatorMatrix(2, 1, "projector", np.eye(4))
    with pytest.raises(DimensionMismatchError):
        SuperOperatorMatrix(2, 1, "channel", np.eye(5))
    # the matrix carries no operator basis: the letter basis is operator_basis(d, n)
    with pytest.raises(TypeError):
        SuperOperatorMatrix(2, 1, "channel", np.eye(4), operator_basis(3, 1))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_superoperator_matrix_is_held_in_f_order(dtype):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((16, 16)).astype(dtype)
    if dtype is np.complex128:
        A += 1j * rng.standard_normal((16, 16))
    given = np.asfortranarray(A)
    assert SuperOperatorMatrix(2, 2, "channel", given).matrix is given
    given = np.ascontiguousarray(A)
    held = SuperOperatorMatrix(2, 2, "channel", given).matrix
    assert held.flags.f_contiguous and not np.shares_memory(held, given)
    assert held.dtype == dtype and np.array_equal(held, given)


# ---------------------------------------------------------------------------
# symmetry classification


EXPECTED_CLASS = {
    "collective_damping": "strong",
    "correlated_damping": "strong",
    "single_site_damping": "weak",
    "independent_damping": "weak",
    "single_jump": "weak",
    "double_jump": "weak",
    "collective_jump": "strong",
    "transverse_ising": "strong",
}


@pytest.mark.parametrize("name,expected", sorted(EXPECTED_CLASS.items()))
@pytest.mark.parametrize("n", [2, 3])
def test_example_families_classify_as_expected(name, expected, n):
    if name == "double_jump" and n == 2:
        expected = "strong"  # the single pair jump is itself symmetric
    cert = certificate(example_channel(name, n=n))
    assert cert.classification == expected
    if expected == "strong":
        assert cert.residuals["strong_commutator"] < 1e-10
    else:
        assert cert.residuals["expansion_residual"] < 1e-8
        assert cert.residuals["unitarity"] < 1e-8
    for U in cert.generator_unitaries.values():
        k = U.shape[0]
        if k:
            assert np.max(np.abs(U.conj().T @ U - np.eye(k))) < 1e-8


def test_asymmetric_kraus_channel_classifies_none():
    f0, f1 = damping_pair(0.5)
    ch = KrausChannel(
        2,
        2,
        (
            np.kron(f0, I2),
            np.kron(f1, I2),
        ),
    )
    cert = classify_kraus_symmetry(ch)
    assert cert.classification == "none"
    assert cert.residuals["expansion_residual"] > 1e-3


def test_nonuniform_field_lindblad_classifies_none():
    H = np.kron(np.diag([1.0, -1.0]), I2) + 2.0 * np.kron(I2, np.diag([1.0, -1.0]))
    lind = Lindbladian(2, 2, H, ())
    cert = classify_lindblad_symmetry(lind)
    assert cert.classification == "none"
    assert cert.residuals["hamiltonian_invariance"] > 1e-3


def test_certificate_rejects_unknown_classification():
    from superschur import SymmetryCertificate

    with pytest.raises(ValueError):
        SymmetryCertificate("sideways", {}, {})


def test_mixing_unitaries_form_a_representation():
    # U(pi) U(sigma) ~ U(pi o sigma) for words up to length three
    ch = example_channel("single_site_damping", n=3, p=0.35)
    gens = adjacent_transpositions(3)
    words = [(g,) for g in gens]
    words += [(a, b) for a in gens for b in gens]
    words += [(a, b, c) for a in gens for b in gens for c in gens]
    cache = {}

    def U_of(pi):
        if pi not in cache:
            U, res, udev = mixing_unitary(ch.kraus_ops, pi, 2, 3)
            assert res < 1e-8 and udev < 1e-8
            cache[pi] = U
        return cache[pi]

    for word in words:
        pi = (0, 1, 2)
        U = np.eye(len(ch.kraus_ops), dtype=np.complex128)
        for g in word:
            pi = compose(g, pi)
            U = U_of(g) @ U
        assert np.max(np.abs(U - U_of(pi))) < 1e-6


def test_mixing_unitary_of_no_operators_is_empty():
    U, res, udev = mixing_unitary((), (1, 0), 2, 2)
    assert U.shape == (0, 0)
    assert res == 0.0 and udev == 0.0


def test_mixing_unitary_refuses_operators_of_another_size():
    ch = example_channel("collective_damping", n=3)
    with pytest.raises(DimensionMismatchError, match=r"^operator 0: shape \(8, 8\) does not match"):
        mixing_unitary(ch.kraus_ops, (1, 0), 2, 2)


def test_mixing_unitary_refuses_a_negligible_operator_by_index():
    X = np.kron(LOWER + LOWER.T, I2)
    X = X + X[[0, 2, 1, 3]][:, [0, 2, 1, 3]]  # X (x) I + I (x) X, which the swap fixes
    # normalized squared norms 0 and 1e-16, at most the constructors' drop bound
    for scale in (0.0, 1e-8):
        with pytest.raises(ValueError, match=r"^operator 1: normalized squared norm .* negligible$"):
            mixing_unitary([X, scale * np.eye(4)], (1, 0), 2, 2)
    # 1e-12 is above it: a tiny operator is not refused
    U, res, udev = mixing_unitary([X, 1e-6 * np.eye(4)], (1, 0), 2, 2)
    assert np.max(np.abs(U - np.eye(2))) < 1e-12 and res < 1e-12 and udev < 1e-12


def test_mixing_unitary_identity_permutation():
    ch = example_channel("collective_damping", n=2, p=0.5)
    U, res, udev = mixing_unitary(ch.kraus_ops, (0, 1), 2, 2)
    assert np.max(np.abs(U - np.eye(len(ch.kraus_ops)))) < 1e-12
    assert res < 1e-12 and udev < 1e-12


def test_classification_matches_superoperator_commutation():
    # classification != none exactly when the superoperator matrix
    # commutes with every permutation shuffle
    basis = operator_basis(2, 3)
    shuffles = [permutation_matrix(g, 4, 3) for g in adjacent_transpositions(3)]

    def superop_commutator(channel):
        S = superop(channel, basis).matrix
        return max(float(np.max(np.abs(S @ L - L @ S))) for L in shuffles)

    for name in sorted(EXPECTED_CLASS):
        ch = example_channel(name, n=3)
        assert certificate(ch).classification != "none"
        assert superop_commutator(ch) < 1e-10

    f0, f1 = damping_pair(0.5)
    lopsided = KrausChannel(
        2,
        3,
        (
            np.kron(np.kron(f0, I2), I2),
            np.kron(np.kron(f1, I2), I2),
        ),
    )
    assert certificate(lopsided).classification == "none"
    assert superop_commutator(lopsided) > 1e-3


def test_weak_families_are_not_strong():
    for name in ("single_site_damping", "independent_damping", "single_jump", "double_jump"):
        cert = certificate(example_channel(name, n=3))
        assert cert.residuals["strong_commutator"] > 1e-3


def test_a_residual_equal_to_its_tolerance_passes(monkeypatch):
    # RESIDUAL_TOLS is the one table the classification reads: set one
    # tolerance to the measured residual, and that residual passes
    z_on_site_0 = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    cases = [
        (example_channel("single_jump", n=3), "strong_commutator", "weak"),
        (Lindbladian(2, 2, z_on_site_0, ()), "hamiltonian_invariance", "none"),
    ]
    for lind, residual, before in cases:
        cert = classify_lindblad_symmetry(lind)
        assert cert.classification == before and cert.residuals[residual] > 0
        tols = {**channels.RESIDUAL_TOLS, residual: cert.residuals[residual]}
        with monkeypatch.context() as m:
            m.setattr(channels, "RESIDUAL_TOLS", tols)
            assert classify_lindblad_symmetry(lind).classification == "strong"


# ---------------------------------------------------------------------------
# example-family structure


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize(
    "name",
    ["collective_damping", "correlated_damping", "single_site_damping", "independent_damping"],
)
def test_damping_families_close_for_all_p(name, p):
    ch = example_channel(name, n=3, p=p)
    assert ch.closure_deviation < 1e-12


def test_collective_damping_operator_count():
    # all-sites-jump plus all-sites-survive plus one completion operator
    ch = example_channel("collective_damping", n=3, p=0.5)
    assert len(ch.kraus_ops) == 3


def test_independent_damping_is_a_product_channel():
    basis = operator_basis(2, 2)
    ch = example_channel("independent_damping", n=2, p=0.36)
    S = kraus_superop(ch, basis).matrix
    single = kraus_superop(
        single_qubit_channel(*damping_pair(0.36)), operator_basis(2, 1)
    ).matrix
    assert np.max(np.abs(S - np.kron(single, single))) < 1e-12


def test_jump_families_sizes_and_rates():
    lind = example_channel("single_jump", n=3, gamma1=0.5)
    assert len(lind.jump_ops) == 3
    for op in lind.jump_ops:
        # Frobenius weight gamma1 * 2**(n-1) from the identity factors
        assert np.vdot(op, op).real == pytest.approx(2.0)
    lind = example_channel("double_jump", n=3, gamma2=1.0)
    assert len(lind.jump_ops) == 3  # pairs (0,1), (0,2), (1,2)
    lind = example_channel("collective_jump", n=3, gamma3=1.0, gamma4=0.5, gamma5=0.25)
    assert len(lind.jump_ops) == 3
    lind = example_channel("collective_jump", n=3, gamma4=0.0)
    assert len(lind.jump_ops) == 2  # zero-rate jumps are omitted
    lind = example_channel("transverse_ising", n=3, h_x=0.7, J=0.2)
    assert lind.jump_ops.shape == (0, 8, 8)


NON_DEFAULT_PARAMS = {
    "collective_damping": {"p": 0.37},
    "correlated_damping": {"p": 0.83},
    "single_site_damping": {"p": 0.21},
    "independent_damping": {"p": 0.64},
    "single_jump": {"gamma1": 0.3, "h_x": 0.7, "J": 0.1},
    "double_jump": {"gamma2": 0.45, "h_x": -0.3, "J": 0.35},
    "collective_jump": {"gamma3": 0.2, "gamma4": 0.0, "gamma5": 1.7, "h_x": 0.9, "J": -0.6},
    "transverse_ising": {"h_x": 0.13, "J": 0.77},
}


def family_arrays(channel):
    """Kraus operators, or the Hamiltonian followed by the jump operators."""
    if isinstance(channel, KrausChannel):
        return list(channel.kraus_ops)
    return [channel.hamiltonian] + list(channel.jump_ops)


@pytest.mark.parametrize("defaults", [True, False], ids=["default", "non-default"])
@pytest.mark.parametrize("name", sorted(EXAMPLE_CHANNELS))
def test_builders_equal_the_site_pattern_reference_byte_for_byte(name, defaults):
    params = {} if defaults else NON_DEFAULT_PARAMS[name]
    for n in range(2, 7):
        got = family_arrays(example_channel(name, n=n, **params))
        want = builder_oracle.REFERENCE[name](n, **params)
        assert len(got) == len(want), n
        for a, b in zip(got, want):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), n


def test_readme_builder_table_matches_the_registry():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Built-in example families", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    table = {
        re.fullmatch(r"\s*`(\w+)`\s*", row[0]).group(1): tuple(re.findall(r"`(\w+)`", row[2]))
        for row in rows
    }
    assert list(table) == list(EXAMPLE_CHANNELS)
    assert table == {name: _builder_params(name) for name in EXAMPLE_CHANNELS}


def test_example_channel_argument_errors():
    with pytest.raises(ValueError, match="unknown example"):
        example_channel("no_such_family")
    with pytest.raises(ValueError, match="n >= 2"):
        example_channel("collective_damping", n=1)
    with pytest.raises(ValueError, match="decay probability"):
        example_channel("collective_damping", n=3, p=1.5)
    with pytest.raises(ValueError, match="gamma1"):
        example_channel("single_jump", n=3, gamma1=-0.1)
    with pytest.raises(ValueError, match="bad parameters") as err:
        example_channel("collective_damping", n=3, gamma1=1.0)
    assert str(err.value).endswith("unknown parameter 'gamma1' (accepted: p)")


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("single_jump", {"gamma1": 10**400}, "gamma1: not finite in float64"),
        ("single_jump", {"J": 10**400}, "J: not finite in float64"),
        ("single_jump", {"gamma1": "1"}, "gamma1: expected a number, got '1'"),
        ("single_jump", {"gamma1": None}, "gamma1: expected a number, got None"),
        ("collective_damping", {"p": True}, "p: expected a number, got True"),
        ("collective_jump", {"gamma3": float("inf")}, "gamma3: not finite in float64"),
    ],
)
def test_example_channel_refuses_a_parameter_that_is_not_a_finite_number(name, params, message):
    # the rule channel_from_dict applies to builder.params, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            example_channel(name, n=3, **params)
    assert str(err.value) == f"bad parameters for {name!r}: {message}"


def _refusal(call) -> str | None:
    try:
        call()
    except (ChannelSpecError, ChannelInvariantError, ValueError) as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "value, finite",
    [
        (sys.float_info.max, True),
        (int(sys.float_info.max) + 2**969, True),  # rounds down to the largest float64
        (2**1024 - 2**970 - 1, True),
        (2**1024 - 2**970, False),  # halfway, rounds up to 2**1024: overflow
        (10**400, False),
        (math.nan, False),
        (math.inf, False),
    ],
    ids=["max", "max+2**969", "2**1024-2**970-1", "2**1024-2**970", "10**400", "nan", "inf"],
)
def test_every_reader_draws_the_float64_boundary_alike(value, finite):
    # one number as a builder parameter, as an operator entry (read in bulk,
    # and by the entrywise walk when a later entry is bad) and as an
    # example_channel argument; accepted numbers fail later, as too large
    zero = [[0, 0], [0, 0]]
    operator = [[[value, 0], [0, 0]], zero]
    walked = [[[value, 0], [0, 0]], [[0, 0], [0, True]]]
    refused = [
        _refusal(lambda: channel_from_dict({
            "d": 2, "n": 2, "kind": "lindblad",
            "builder": {"name": "transverse_ising", "params": {"h_x": value}},
        })) == "builder.params.h_x: not finite in float64",
        _refusal(lambda: channel_from_dict({
            "d": 2, "n": 1, "kind": "kraus", "operators": [operator],
        })) == "operators[0][0][0]: entries must be finite",
        _refusal(lambda: channel_from_dict({
            "d": 2, "n": 1, "kind": "kraus", "operators": [walked],
        })) == "operators[0][0][0]: entries must be finite",
        _refusal(lambda: example_channel("transverse_ising", n=2, h_x=value))
        == "bad parameters for 'transverse_ising': h_x: not finite in float64",
    ]
    assert refused == [not finite] * 4


# ---------------------------------------------------------------------------
# channel description documents


def matrix_doc(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def test_channel_from_dict_kraus_round_trip():
    f0, f1 = damping_pair(0.36)
    doc = {
        "d": 2,
        "n": 1,
        "kind": "kraus",
        "operators": [matrix_doc(f0), matrix_doc(f1)],
    }
    ch = channel_from_dict(doc)
    assert isinstance(ch, KrausChannel)
    assert np.max(np.abs(ch.kraus_ops[0] - f0)) < 1e-15


def test_channel_from_dict_lindblad_with_hamiltonian():
    doc = {
        "d": 2,
        "n": 1,
        "kind": "lindblad",
        "hamiltonian": matrix_doc(np.diag([1.0, -1.0])),
        "operators": [matrix_doc(0.5 * LOWER)],
    }
    lind = channel_from_dict(doc)
    assert isinstance(lind, Lindbladian)
    assert len(lind.jump_ops) == 1


def test_channel_from_dict_orthogonalize_flag():
    # a unitary recombination keeps the map but breaks the pairwise
    # orthogonality; the constructor rotates it back, so the flag that
    # asked for that rotation is an unknown field
    base = example_channel("collective_damping", n=2, p=0.4)
    F = list(base.kraus_ops)
    mixed = [(F[0] + F[1]) / math.sqrt(2), (F[0] - F[1]) / math.sqrt(2)] + F[2:]
    doc = {
        "d": 2,
        "n": 2,
        "kind": "kraus",
        "operators": [matrix_doc(m) for m in mixed],
    }
    ch = channel_from_dict(doc)
    assert ch.closure_deviation < 1e-10
    basis = operator_basis(2, 2)
    assert np.max(np.abs(
        kraus_superop(ch, basis).matrix - kraus_superop(base, basis).matrix
    )) < 1e-12
    for value in (True, False):
        with pytest.raises(ChannelSpecError, match="^orthogonalize: unknown field$"):
            channel_from_dict({**doc, "orthogonalize": value})


def test_channel_from_dict_builder():
    doc = {
        "d": 2,
        "n": 3,
        "kind": "kraus",
        "builder": {"name": "collective_damping", "params": {"p": 0.25}},
    }
    ch = channel_from_dict(doc)
    assert isinstance(ch, KrausChannel)
    assert ch.n == 3


def builder_with_p(value):
    def mutate(doc):
        del doc["operators"]
        doc.update(n=2, builder={"name": "collective_damping", "params": {"p": value}})
    return mutate


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("kind"), "kind"),
        (lambda d: d.pop("d"), "d: required"),
        (lambda d: d.update(d=1), "d: must be >="),
        (lambda d: d.update(kind="unitary"), "kind"),
        (lambda d: d.update(extra=1), "extra: unknown field"),
        (lambda d: d.pop("operators"), "exactly one"),
        (lambda d: d.update(builder={"name": "collective_damping"}), "exactly one"),
        (lambda d: d.update(operators=[[[0.0, 0.0]]]), "operators[0]"),
        (lambda d: d.update(orthogonalize="yes"), "orthogonalize"),
        (lambda d: d.update(hamiltonian=matrix_doc(I2)), "hamiltonian"),
        (builder_with_p(True), "builder.params.p: expected a number, got True"),
        (builder_with_p("x"), "builder.params.p: expected a number, got 'x'"),
    ],
)
def test_channel_from_dict_schema_errors(mutate, fragment):
    f0, f1 = damping_pair(0.5)
    doc = {
        "d": 2,
        "n": 1,
        "kind": "kraus",
        "operators": [matrix_doc(f0), matrix_doc(f1)],
    }
    mutate(doc)
    with pytest.raises(ChannelSpecError, match=__import__("re").escape(fragment)):
        channel_from_dict(doc)


def test_channel_from_dict_entry_errors_carry_field_paths():
    doc = {
        "d": 2,
        "n": 1,
        "kind": "kraus",
        "operators": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], "oops"]]],
    }
    with pytest.raises(ChannelSpecError, match=r"operators\[0\]\[1\]\[1\]"):
        channel_from_dict(doc)


@pytest.mark.parametrize(
    "row,message",
    [
        ([[0.0, 0.0], [True, 0.0]], "operators[1][1][1]: expected a [re, im] pair of numbers"),
        ([[0.0, 0.0], [1.0, 0.0, 0.0]], "operators[1][1][1]: expected a [re, im] pair of numbers"),
        ([[0.0, 0.0]], "operators[1][1]: expected a row of 2 entries"),
    ],
    ids=["true-entry", "three-element-entry", "short-row"],
)
def test_channel_from_dict_refusals_name_the_entry(row, message):
    # the second operator's second row is bad; the first operator and the
    # first row before it are well formed
    f0, f1 = damping_pair(0.5)
    second = matrix_doc(f1)
    second[1] = row
    doc = {"d": 2, "n": 1, "kind": "kraus", "operators": [matrix_doc(f0), second]}
    with pytest.raises(ChannelSpecError) as info:
        channel_from_dict(doc)
    assert str(info.value) == message


def test_channel_from_dict_builder_errors():
    base = {"d": 2, "n": 3, "kind": "kraus"}
    with pytest.raises(ChannelSpecError, match="builder"):
        channel_from_dict({**base, "builder": {"name": "no_such"}})
    with pytest.raises(ChannelSpecError, match="kind"):
        channel_from_dict(
            {**base, "kind": "lindblad", "builder": {"name": "collective_damping"}}
        )
    with pytest.raises(ChannelSpecError, match="d = 2"):
        channel_from_dict(
            {**base, "d": 3, "builder": {"name": "collective_damping"}}
        )
    with pytest.raises(ChannelSpecError, match="builder.name"):
        channel_from_dict({**base, "builder": {}})
    with pytest.raises(ChannelSpecError, match="^hamiltonian: not allowed together"):
        channel_from_dict(
            {**base, "builder": {"name": "collective_damping"}, "hamiltonian": matrix_doc(I2)}
        )
    with pytest.raises(ChannelSpecError, match="^orthogonalize: unknown field$"):
        channel_from_dict(
            {**base, "builder": {"name": "collective_damping"}, "orthogonalize": True}
        )


# ---------------------------------------------------------------------------
# one orthogonality bound, relative to the operators' size, decides whether
# a set is kept as given or rotated


def random_traceless_jumps(seed, d=3, n=2, count=2):
    rng = np.random.default_rng(seed)
    dim = d**n
    mats = []
    for _ in range(count):
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(A - np.trace(A) / dim * np.eye(dim))
    return orthogonalize_kraus(d, n, mats)


def kept_as_given(jumps):
    return np.array_equal(Lindbladian(3, 2, np.zeros((9, 9)), jumps).jump_ops, np.stack(jumps))


@pytest.mark.parametrize("seed", range(5))
def test_scaled_orthogonal_jumps_are_accepted(seed):
    # the Gram diagonal is ~1e6 here, so roundoff overlaps reach ~1e-9
    jumps = tuple(1e3 * m for m in random_traceless_jumps(seed))
    assert kept_as_given(jumps)


def test_scaled_non_orthogonal_jumps_are_rotated():
    a, b = random_traceless_jumps(0)
    jumps = (1e3 * a, 1e3 * (b + 1e-6 * a))
    assert not kept_as_given(jumps)
    G = channels._gram(Lindbladian(3, 2, np.zeros((9, 9)), jumps).jump_ops)
    assert np.max(np.abs(G - np.diag(G.diagonal()))) <= channels._orthogonality_bound(G)


def test_small_operators_keep_the_absolute_orthogonality_bound():
    a, b = random_traceless_jumps(1)
    # Gram diagonal 0.25 for a: the bound stays 1e-10, not 2.5e-11
    small = 0.5 / np.sqrt(np.vdot(a, a).real / 9)
    assert kept_as_given((small * a, small * (b + 2e-10 * a)))  # overlap ~5e-11
    assert not kept_as_given((small * a, small * (b + 1e-9 * a)))  # overlap ~2.5e-10
